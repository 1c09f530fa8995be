"""Two-network training: cross-entropy warmup and the per-epoch SSL loop.

Each SSL epoch trains the networks alternately.  Before a network's half
of the epoch, the caller recomputes the clean/noisy partition from scratch
with ``select_for_network`` and hands it to ``train_half_epoch``, so the
other network's most recent update always informs the split.  Within the
half, clean batches get refined labels, noisy batches get sharpened
pseudo-labels guessed by both networks, everything is mixed with MixUp,
and the contrastive term pulls together the two strong views of each
noisy sample.  A half with an empty noisy set mixes the clean entries
among themselves, with ``lu = lc = 0``, and is flagged ``empty_noisy``; one
with an empty clean set runs CE on the noisy set's given labels and is
flagged ``empty_clean``.

Label refinement and pseudo-label guessing are evaluation-mode forward
passes: their outputs enter the losses as constants, never on the tape.

Every SGD step, of warmup, of the empty-clean fallback and of an SSL half,
goes through ``_sgd_steps``: one tape, one backward, one finiteness check
and one update of the step's parameters packed into a row.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from . import kernel
from .data import (MAX_SEED, AugmentationSpec, LabeledDataset, _check_number, batch_iterator,
                   check_settings, setting, strong_augment, weak_augment)
from .kernel import GradientTape, Matrix, backward, sgd_step
from .model import ALL_GROUPS, PHI, THETA, NetworkParams, TwinNetworks, layout, \
    dataset_softmax, forward_logits, forward_projection, forward_softmax, softmax_in_place
from .selection import (CutoffParams, DivergenceReport, SelectionResult,
                        baseline_global_select, compute_cutoff,
                        compute_divergences, compute_filter_rate,
                        divergences_from_probs, uniform_select)

logger = logging.getLogger(__name__)

# rng substream tags
_S_WARMUP = 50
_S_CLEAN = 60
_S_NOISY = 61
_S_ITER = 70

# the loss terms of an SSL step, in the order records report them
_LOSS_TERMS = ("lx", "lu", "lreg", "lc")


class DegenerateBatchError(RuntimeError):
    """MixMatch assembly was asked to mix an empty labeled collection."""


class TrainingDivergedError(RuntimeError):
    """A training step produced a non-finite loss term or parameter."""

    def __init__(self, epoch: int, net: int, phase: str, term: str):
        super().__init__(f"training diverged at epoch {epoch}, net {net} ({phase}): "
                         f"{term} is not finite")
        self.epoch, self.net, self.phase, self.term = epoch, net, phase, term

    def __reduce__(self):   # so the error crosses a process boundary intact
        return type(self), (self.epoch, self.net, self.phase, self.term)


@dataclass(frozen=True)
class Hyperparams:
    """Every scalar training knob in one validated record."""

    T: float = setting(0.5, float, 1e-9, 1e9)
    lambda_u: float = setting(30.0, float, 0.0, 1e9)
    lambda_c: float = setting(0.025, float, 0.0, 1e9)
    lambda_r: float = setting(1.0, float, 0.0, 1e9)
    kappa: float = setting(0.05, float, 1e-9, 1e9)
    d_omega: float = setting(0.5, float, 0.0, 1.0)
    alpha: float = setting(4.0, float, 1e-9, 1e9)
    lr: float = setting(0.02, float, 1e-12, 1e9)
    momentum: float = setting(0.9, float, 0.0, 0.999999)
    weight_decay: float = setting(5e-4, float, 0.0, 1e9)
    batch_size: int = setting(64, int, 1, 10_000_000)
    warmup_epochs: int = setting(10, int, 0, 10_000_000)
    total_epochs: int = setting(300, int, 0, 10_000_000)
    lr_decay_factor: float = setting(0.1, float, 1e-9, 1.0)
    lr_decay_every: int = setting(120, int, 1, 10_000_000)
    seed: int = setting(0, int, 0, MAX_SEED)

    def __post_init__(self):
        check_settings(self)
        if self.total_epochs < self.warmup_epochs:
            raise ValueError("total_epochs must be >= warmup_epochs")


@dataclass(frozen=True)
class AblationFlags:
    """Switchable pieces of the pipeline; all on for the full method."""

    balancing: bool = setting(True, bool)
    contrastive: bool = setting(True, bool)
    ensemble: bool = setting(True, bool)

    def __post_init__(self):
        check_settings(self)


@dataclass
class MixedBatch:
    inputs: Matrix
    targets: Matrix
    lambda_prime: np.ndarray


def one_hot(labels, num_classes: int) -> Matrix:
    labels = np.asarray(labels, dtype=np.int64)
    out = np.zeros((len(labels), num_classes))
    out[np.arange(len(labels)), labels] = 1.0
    return kernel.wrap(out)


def refinement_weights(d: np.ndarray, d_omega: float) -> np.ndarray:
    """Confidence weight per sample: 1 below the threshold, else 1 - d."""
    d = np.asarray(d, dtype=np.float64)
    return np.where(d < d_omega, 1.0, 1.0 - d)


def sharpen(p: Matrix, T: float) -> Matrix:
    """Raise each row to 1/T and renormalize; T < 1 concentrates mass."""
    if not 0.0 < _check_number("T", T, float) < math.inf:
        raise ValueError(f"T: {T!r} must be finite and > 0")
    powered = p.data ** (1.0 / T)
    return kernel.wrap(powered / powered.sum(axis=1, keepdims=True))


def blend_targets(y_onehot: Matrix, p: Matrix, weights: np.ndarray) -> Matrix:
    """Per-row convex combination w * y + (1 - w) * p."""
    w = np.asarray(weights, dtype=np.float64).reshape(-1, 1)
    return kernel.wrap(w * y_onehot.data + (1.0 - w) * p.data)


def refine_labels(net: NetworkParams, x_weak_1: Matrix, x_weak_2: Matrix,
                  y_onehot: Matrix, weights: np.ndarray, T: float) -> Matrix:
    """Blend given labels with the training network's average prediction.

    Only the network currently being trained contributes here; pseudo
    labels for the noisy set are the ones that use both networks.
    """
    p = kernel.wrap((forward_softmax(net, x_weak_1).data + forward_softmax(net, x_weak_2).data) / 2.0)
    return sharpen(blend_targets(y_onehot, p, weights), T)


def guess_pseudo_labels(twins: TwinNetworks, u_weak_1: Matrix, u_weak_2: Matrix, T: float) -> Matrix:
    """Average both networks over both weak views, then sharpen."""
    q = (forward_softmax(twins.net1, u_weak_1).data
         + forward_softmax(twins.net1, u_weak_2).data
         + forward_softmax(twins.net2, u_weak_1).data
         + forward_softmax(twins.net2, u_weak_2).data) / 4.0
    return sharpen(kernel.wrap(q), T)


def mixup_with_lambda(x1: Matrix, t1: Matrix, x2: Matrix, t2: Matrix, lam: np.ndarray) -> MixedBatch:
    """Convex combination with given per-row coefficients (already >= 0.5)."""
    lam = np.asarray(lam, dtype=np.float64).reshape(-1, 1)
    rest = 1.0 - lam
    inputs = lam * x1.data
    inputs += rest * x2.data
    targets = lam * t1.data
    targets += rest * t2.data
    return MixedBatch(kernel.wrap(inputs), kernel.wrap(targets), lam.ravel())


def mixup(x1: Matrix, t1: Matrix, x2: Matrix, t2: Matrix, alpha: float,
          rng: np.random.Generator) -> MixedBatch:
    """Beta(alpha, alpha) mixing with lambda' = max(lambda, 1 - lambda).

    The max keeps every mixed sample dominated by its first argument, so
    a clean batch stays mostly clean after mixing.
    """
    lam = rng.beta(alpha, alpha, size=x1.rows)
    lam = np.maximum(lam, 1.0 - lam)
    return mixup_with_lambda(x1, t1, x2, t2, lam)


def mixmatch_assemble(x_inputs: Matrix, x_targets: Matrix,
                      u_inputs: Matrix, u_targets: Matrix,
                      alpha: float, rng: np.random.Generator) -> tuple[MixedBatch, MixedBatch]:
    """Mix labeled and unlabeled entries against a shuffle of their union; with
    no unlabeled entries, the labeled ones mix among themselves and ``u`` is empty."""
    n_x = x_inputs.rows
    if n_x == 0:
        raise DegenerateBatchError("mixmatch needs a non-empty labeled collection")
    all_inputs = np.vstack([x_inputs.data, u_inputs.data])
    all_targets = np.vstack([x_targets.data, u_targets.data])
    perm = rng.permutation(len(all_inputs))
    w_inputs = all_inputs[perm]
    w_targets = all_targets[perm]
    mixed_x = mixup(x_inputs, x_targets,
                    kernel.wrap(w_inputs[:n_x]), kernel.wrap(w_targets[:n_x]), alpha, rng)
    mixed_u = mixup(u_inputs, u_targets,
                    kernel.wrap(w_inputs[n_x:]), kernel.wrap(w_targets[n_x:]), alpha, rng)
    return mixed_x, mixed_u


# ---------------------------------------------------------------------------
# loss terms (tape-aware; targets are constants)
#
# Each taped loss is one fused tape record.  Its forward and its backward
# closure replay, operation for operation and in the same order, the
# kernel primitives (softmax_rows, mul, sum_all, scale, ...) that the term
# was first written with, so values and gradients are bit-identical to
# that primitive chain; tests/test_fused.py keeps it as the reference.
# Results accumulate in place only into arrays the same call allocated,
# never into an input, a parameter or the incoming gradient ``g``.


def _softmax_grad(s: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The softmax backward of ``g``, written over ``g`` (the caller owns it)."""
    dot = (g * s).sum(axis=1, keepdims=True)
    g -= dot
    g *= s
    return g


def loss_lx(logits: Matrix, targets: Matrix, tape: GradientTape | None = None) -> Matrix:
    """Mean soft cross-entropy between target rows and softmax(logits)."""
    ls = logits.data - logits.data.max(axis=1, keepdims=True)
    e = np.exp(ls)
    ls -= np.log(e.sum(axis=1, keepdims=True))
    c = -1.0 / logits.rows
    out = np.array([[np.multiply(ls, targets.data, out=e).sum()]]) * c

    def bwd(g, tracked):
        g_ls = targets.data * (g * c)[0, 0]
        p = np.exp(ls)
        p *= g_ls.sum(axis=1, keepdims=True)
        g_ls -= p
        return (g_ls,)

    return kernel.record(tape, (logits,), kernel.wrap(out), bwd)


def loss_lu(logits: Matrix, targets: Matrix, tape: GradientTape | None = None) -> Matrix:
    """Mean squared Euclidean distance between targets and softmax(logits)."""
    p = softmax_in_place(logits.data.copy())
    diff = p - targets.data
    c = 1.0 / logits.rows
    out = np.array([[(diff * diff).sum()]]) * c

    def bwd(g, tracked):
        g_diff = diff * (g * c)[0, 0]
        g_diff += g_diff   # diff * diff reaches diff twice
        return (_softmax_grad(p, g_diff),)

    return kernel.record(tape, (logits,), kernel.wrap(out), bwd)


def loss_reg(logits: Matrix, num_classes: int, tape: GradientTape | None = None) -> Matrix:
    """KL of the uniform prior from the batch-mean prediction.

    Penalizes collapsing all outputs onto few classes; zero when the
    batch-mean prediction is exactly uniform.
    """
    n = logits.rows
    p = softmax_in_place(logits.data.copy())
    weights = np.full((1, n), 1.0 / n)
    mean_row = weights @ p
    c = -1.0 / num_classes
    out = np.array([[np.log(mean_row).sum()]]) * c + np.array([[-np.log(num_classes)]])

    def bwd(g, tracked):
        g_log = (g * c)[0, 0] / mean_row
        return (_softmax_grad(p, weights.T @ g_log),)

    return kernel.record(tape, (logits,), kernel.wrap(out), bwd)


@functools.lru_cache(maxsize=2)
def _pair_mask(n: int) -> np.ndarray:
    """The n x n positive-pair indicator (2b with 2b+1); shared, so read-only."""
    mask = np.zeros((n, n))
    idx = np.arange(n)
    mask[idx, idx ^ 1] = 1.0
    mask.flags.writeable = False
    return mask


def loss_contrastive(embeddings: Matrix, kappa: float, tape: GradientTape | None = None) -> Matrix:
    """Normalized-temperature cross-entropy over interleaved positive pairs.

    Rows 2b and 2b+1 are the two augmented views of sample b; every other
    row in the batch is a negative.  An empty batch contributes zero, and
    a single pair is exactly zero (its denominator is just the positive).
    """
    n = embeddings.rows
    if n == 0:
        return Matrix.zeros(1, 1)
    if n % 2 != 0:
        raise ValueError("contrastive batch must hold an even number of embeddings")
    z = embeddings.data
    z_t = z.T.copy()
    c = 1.0 / kappa
    sim = z @ z_t
    sim *= c
    # row-wise log-sum-exp over the off-diagonal similarities
    masked = sim.copy()
    np.fill_diagonal(masked, -np.inf)
    row_max = masked.max(axis=1, keepdims=True)
    e = masked - row_max
    np.exp(e, out=e)
    np.fill_diagonal(e, 0.0)
    lse = row_max + np.log(e.sum(axis=1, keepdims=True))
    pairs = _pair_mask(n)
    sim *= pairs
    diff = np.array([[lse.sum()]]) - np.array([[sim.sum()]])
    out = diff * (1.0 / n)

    def bwd(g, tracked):
        g_diff = g * (1.0 / n)
        g_sim = pairs * (-g_diff)[0, 0]
        w = masked - lse
        np.exp(w, out=w)
        np.fill_diagonal(w, 0.0)
        w *= g_diff[0, 0]
        g_sim += w
        g_sim *= c
        g_z = g_sim @ z_t.T
        g_z += (z.T @ g_sim).T
        return (g_z,)

    return kernel.record(tape, (embeddings,), kernel.wrap(out), bwd)


def total_loss(lx: Matrix, lu: Matrix, lreg: Matrix, lc: Matrix,
               hp: Hyperparams, tape: GradientTape | None = None) -> Matrix:
    semi = lx.data + lu.data * hp.lambda_u
    extra = lreg.data * hp.lambda_r + lc.data * hp.lambda_c

    def bwd(g, tracked):
        return g, g * hp.lambda_u, g * hp.lambda_r, g * hp.lambda_c

    return kernel.record(tape, (lx, lu, lreg, lc), kernel.wrap(semi + extra), bwd)


# ---------------------------------------------------------------------------
# epoch mechanics


def decayed_lr(hp: Hyperparams, epoch: int) -> float:
    """Step decay: multiply by the decay factor every lr_decay_every epochs."""
    return hp.lr * (hp.lr_decay_factor ** (epoch // hp.lr_decay_every))


@dataclass
class HalfEpochRecord:
    """What one network's half of an SSL epoch produced."""

    net_index: int
    report: DivergenceReport
    selection: SelectionResult
    losses: dict[str, float]
    degenerate: str | None = None


def _rows(features: Matrix, idx: np.ndarray) -> Matrix:
    return kernel.wrap(features.data[idx])


def _sgd_steps(net: NetworkParams, hp: Hyperparams, lr: float, names: tuple[str, ...],
               items, loss_fn, where: tuple[int, int, str]) -> list[dict[str, float]]:
    """One SGD step of the parameters ``names``, a prefix of ``ALL_GROUPS``,
    per entry of ``items``, at learning rate ``lr`` and ``hp``'s momentum
    and weight decay; returns each step's loss terms as floats.

    A step watches the parameters on a new tape, takes ``loss, terms =
    loss_fn(tape, item)``, makes one ``backward`` of ``loss`` and is refused
    if a term is not finite; each term's float is read once, for the check
    and the result.  For the steps the parameters live in one read-only row
    whose views are the network's parameter matrices, and their velocities
    are the same prefix of ``net.velocity``, updated in place.  So a step
    updates one row, not one matrix per name, and its finiteness check scans
    one array; a non-finite row is scanned part by part to name the first
    bad parameter.  Every element goes through the same operations as in an
    update of its matrix alone, so the bits are the same.  Each step gives
    the network new matrices (the softmax memo keys on identity) and packs
    a new gradient row.  A diverging step leaves the parameters from before
    it and the velocities it updated.

    Floating-point warnings are off inside the steps: the finiteness check
    names a diverging step's epoch, network and term instead.
    """
    assert names == ALL_GROUPS[:len(names)], names
    parts = layout(net.arch)[:len(names)]
    velocity = net.velocity[:parts[-1][1].stop]
    params = [net.params[name] for name in names]
    row = np.concatenate([p.data.ravel() for p in params])
    row.flags.writeable = False   # sgd_step must not write into the row it steps from
    steps: list[dict[str, float]] = []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for item in items:
            tape = GradientTape()
            for p in params:
                tape.watch(p)
            loss, terms = loss_fn(tape, item)
            grads = backward(tape, loss)
            values = {name: term.item() for name, term in terms.items()}
            for name, value in values.items():
                if not math.isfinite(value):
                    raise TrainingDivergedError(*where, name)
            row = sgd_step(row, np.concatenate([grads[p].data.ravel() for p in params]),
                           velocity, lr, hp.momentum, hp.weight_decay)
            if not np.isfinite(row).all():
                raise TrainingDivergedError(*where, next(
                    name for name, part, _ in parts if not np.isfinite(row[part]).all()))
            row.flags.writeable = False   # its views become the network's matrices
            params = [kernel.wrap(row[part].reshape(shape)) for _, part, shape in parts]
            net.params.update(zip(names, params))
            steps.append(values)
    return steps


def _ce_loss(net: NetworkParams, ds: LabeledDataset, targets_full: Matrix):
    """The loss function of CE steps: ``lx`` of a batch's logits against
    its rows of ``targets_full``."""
    def ce(tape: GradientTape, batch: np.ndarray):
        lx = loss_lx(forward_logits(net, _rows(ds.features, batch), tape),
                     _rows(targets_full, batch), tape)
        return lx, {"lx": lx}
    return ce


def warmup_train(twins: TwinNetworks, ds: LabeledDataset, hp: Hyperparams, epoch: int) -> float:
    """One epoch of cross-entropy on all given labels, both networks independently.

    The projection head is untouched during warmup.  Returns the epoch's
    mean CE over both networks' steps.
    """
    all_idx = np.arange(len(ds))
    targets_full = one_hot(ds.given_labels, ds.num_classes)
    ce_values = []
    for k, net in enumerate((twins.net1, twins.net2), start=1):
        batches = batch_iterator(all_idx, hp.batch_size, (hp.seed, _S_WARMUP, k), epoch)
        steps = _sgd_steps(net, hp, decayed_lr(hp, epoch), THETA + PHI, batches,
                           _ce_loss(net, ds, targets_full), (epoch, k, "warmup"))
        ce_values += [terms["lx"] for terms in steps]
    return float(np.mean(ce_values)) if ce_values else 0.0


def select_for_network(twins: TwinNetworks, net_index: int, ds: LabeledDataset,
                       cutoff_params: CutoffParams,
                       flags: AblationFlags) -> tuple[DivergenceReport, SelectionResult]:
    """One full selection pass as seen by the given network.

    With ensembling on, divergences come from the averaged prediction of
    both networks; with it off, only the network's own softmax is used.
    """
    if flags.ensemble:
        report = compute_divergences(twins, ds)
    else:
        net = twins.net1 if net_index == 1 else twins.net2
        report = divergences_from_probs(dataset_softmax(net, ds.features), ds.given_labels)
    d_cut = compute_cutoff(report, cutoff_params)
    rate = compute_filter_rate(report, d_cut)
    if flags.balancing:
        sel = uniform_select(report, ds.given_labels, ds.num_classes, rate,
                             quota_mode=cutoff_params.quota_mode, d_cutoff=d_cut)
    else:
        sel = baseline_global_select(report, rate, ds.given_labels, ds.num_classes,
                                     d_cutoff=d_cut)
    return report, sel


def _interleave_two_views(a: Matrix, b: Matrix) -> Matrix:
    """Stack two per-sample views as adjacent rows: a0, b0, a1, b1, ..."""
    n, d = a.shape
    out = np.empty((2 * n, d))
    out[0::2] = a.data
    out[1::2] = b.data
    return kernel.wrap(out)


def _repeat_rows_twice(t: Matrix) -> Matrix:
    return kernel.wrap(np.repeat(t.data, 2, axis=0))


def train_half_epoch(twins: TwinNetworks, net_index: int, ds: LabeledDataset,
                     hp: Hyperparams, aug: AugmentationSpec, flags: AblationFlags, epoch: int,
                     report: DivergenceReport, sel: SelectionResult) -> HalfEpochRecord:
    """Train one network on the split ``sel`` of ``report`` while the other stays frozen."""
    net = twins.net1 if net_index == 1 else twins.net2
    lr = decayed_lr(hp, epoch)
    weights = refinement_weights(report.d, hp.d_omega)
    targets_full = one_hot(ds.given_labels, ds.num_classes)

    clean_batches = batch_iterator(sel.clean_indices, hp.batch_size,
                                   (hp.seed, _S_CLEAN, net_index), epoch)
    noisy_batches = batch_iterator(sel.noisy_indices, hp.batch_size,
                                   (hp.seed, _S_NOISY, net_index), epoch)

    if not clean_batches:
        # no trusted samples: fall back to plain CE on the given labels
        logger.warning("epoch %d net %d: clean set empty, falling back to CE on noisy set",
                       epoch, net_index)
        steps = _sgd_steps(net, hp, lr, THETA + PHI, noisy_batches,
                           _ce_loss(net, ds, targets_full), (epoch, net_index, "empty_clean"))
        return HalfEpochRecord(net_index, report, sel, _mean_losses(steps), "empty_clean")

    degenerate = None
    if not noisy_batches:
        degenerate = "empty_noisy"
        logger.warning("epoch %d net %d: noisy set empty, training on refined clean labels only",
                       epoch, net_index)
        noisy_batches = [sel.noisy_indices] * len(clean_batches)

    def views(idx: np.ndarray, rng: np.random.Generator) -> list[Matrix]:
        """Two weak, then two strong augmentations of the rows ``idx``, in draw order."""
        raw = _rows(ds.features, idx)
        return [f(raw, aug, rng) for f in (weak_augment, weak_augment, strong_augment, strong_augment)]

    def ssl_loss(tape: GradientTape, item) -> tuple[Matrix, dict[str, Matrix]]:
        it, (cb, ub) = item
        rng = np.random.default_rng([hp.seed, _S_ITER, epoch, net_index, it])
        xw1, xw2, xs1, xs2 = views(cb, rng)
        y_refined = refine_labels(net, xw1, xw2, _rows(targets_full, cb), weights[cb], hp.T)
        uw1, uw2, us1, us2 = views(ub, rng)
        q = guess_pseudo_labels(twins, uw1, uw2, hp.T)
        u_in = _interleave_two_views(us1, us2)
        mixed_x, mixed_u = mixmatch_assemble(
            _interleave_two_views(xs1, xs2), _repeat_rows_twice(y_refined),
            u_in, _repeat_rows_twice(q), hp.alpha, rng)

        logits_x = forward_logits(net, mixed_x.inputs, tape)
        lx = loss_lx(logits_x, mixed_x.targets, tape)
        lu = lc = Matrix.zeros(1, 1)
        if len(ub):   # the unlabeled terms; an empty noisy batch leaves lu and lc at 0
            logits_u = forward_logits(net, mixed_u.inputs, tape)
            lu = loss_lu(logits_u, mixed_u.targets, tape)
            lreg = loss_reg(kernel.concat_rows(logits_x, logits_u, tape), ds.num_classes, tape)
            if flags.contrastive:
                lc = loss_contrastive(forward_projection(net, u_in, tape), hp.kappa, tape)
        else:
            lreg = loss_reg(logits_x, ds.num_classes, tape)
        return total_loss(lx, lu, lreg, lc, hp, tape), {"lx": lx, "lu": lu, "lreg": lreg, "lc": lc}

    steps = _sgd_steps(net, hp, lr, ALL_GROUPS, enumerate(zip(clean_batches, noisy_batches)),
                       ssl_loss, (epoch, net_index, "ssl"))
    return HalfEpochRecord(net_index, report, sel, _mean_losses(steps), degenerate)


def _mean_losses(steps: list[dict[str, float]]) -> dict[str, float]:
    """Each loss term's mean over the steps; a term a step lacks counts 0."""
    return {k: float(np.mean([terms.get(k, 0.0) for terms in steps])) if steps else 0.0
            for k in _LOSS_TERMS}

