"""Two-network training: cross-entropy warmup and the per-epoch SSL loop.

Each SSL epoch trains the networks alternately.  Before a network's half
of the epoch, the caller recomputes the clean/noisy partition from scratch
with ``select_for_network``, from the networks' current train-set
predictions, and hands it to ``train_half_epoch``, so the other network's
most recent update always informs the split.  Within the half, clean
batches get refined labels, noisy batches get sharpened pseudo-labels
guessed by both networks, everything is mixed with MixUp, and the
contrastive term pulls together the two strong views of each noisy
sample.  A half pairs its clean and noisy batch lists in order and makes
one step per pair, so min(#clean, #noisy) steps; clean batches past the
noisy count go unused (ROADMAP item 2).  With an empty noisy set it makes
one step per clean batch, mixes the clean entries among themselves, with
``lu = lc = 0``, and is flagged ``empty_noisy``; with an empty clean set it
makes no step and is flagged ``empty_clean``.

Label refinement and pseudo-label guessing are evaluation-mode forward
passes: their outputs enter the losses as constants, never on the tape.

Every SGD step, of warmup and of an SSL half, goes through ``_sgd_steps``:
one tape, one backward, one finiteness check and one update of the step's
parameters packed into a row.

Everything a step computes follows the dtype of the network and the
batch, ``kernel.DTYPE`` in training: targets, MixUp weights and every loss
constant are made in it, so no float64 operand widens a product.  The
selection divergences (``selection.divergences_from_probs``) and the
metrics stay float64.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, fields

import numpy as np

from . import kernel
from .data import (MAX_SEED, AugmentationSpec, LabeledDataset, _check_columns, _check_number,
                   _checked_indices, batch_iterator, check_settings, setting, strong_augment,
                   weak_augment)
from .kernel import GradientTape, Matrix, backward, sgd_step
from .model import ALL_GROUPS, PHI, THETA, NetworkParams, TwinNetworks, layout, \
    forward_logits, forward_projection, forward_softmax, softmax_in_place
from .selection import (DivergenceReport, SelectionResult, compute_cutoff, compute_filter_rate,
                        divergences_from_probs, select_clean)

logger = logging.getLogger(__name__)

# rng substream tags
_S_WARMUP = 50
_S_CLEAN = 60
_S_NOISY = 61
_S_ITER = 70

# the loss terms of an SSL step, in the order records report them
_LOSS_TERMS = ("lx", "lu", "lreg", "lc")


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

    # T >= 0.01: sharpen scales a row's largest entry into [0.5, 1) before the
    # power, so it powers to >= 2 ** -100, a normal float32, and no row sums to 0
    T: float = setting(0.5, float, 0.01, 1e9)
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


_T_RANGE = next(f for f in fields(Hyperparams) if f.name == "T").metadata["range"]


@dataclass(frozen=True)
class AblationFlags:
    """Switchable pieces of the pipeline; all on for the full method."""

    balancing: bool = setting(True, bool)
    contrastive: bool = setting(True, bool)
    ensemble: bool = setting(True, bool)

    def __post_init__(self):
        check_settings(self)


def one_hot(labels, num_classes: int) -> np.ndarray:
    return np.eye(num_classes, dtype=kernel.DTYPE)[_checked_indices("labels", labels, num_classes)]


def refinement_weights(d: np.ndarray, d_omega: float) -> np.ndarray:
    """Confidence weight per sample: 1 below the threshold, else 1 - d."""
    d = np.asarray(d, dtype=np.float64)
    return np.where(d < d_omega, 1.0, 1.0 - d)


def sharpen(p: np.ndarray, T: float) -> np.ndarray:
    """Raise each row to 1/T and renormalize; T < 1 concentrates mass.

    Each row is first divided by the power of two that brings its largest
    entry into [0.5, 1), so that entry powers to at least 2 ** (-1 / T)
    (>= 2 ** -100 in T's range, a normal float32) and no row's sum
    underflows to 0 / 0.  Scaling by a power of two is exact, so a row
    that did not underflow unscaled keeps its bits at T = 0.5."""
    T = _check_number("T", T, float, *_T_RANGE)
    powered = np.ldexp(p, -np.frexp(p.max(axis=1, keepdims=True))[1])
    powered **= 1.0 / T
    powered /= powered.sum(axis=1, keepdims=True)
    return powered


def blend_targets(y_onehot: np.ndarray, p: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per-row convex combination w * y + (1 - w) * p, in the dtype of ``p``."""
    w = np.asarray(weights, dtype=p.dtype).reshape(-1, 1)
    return w * y_onehot + (1.0 - w) * p


def refine_labels(net: NetworkParams, x_weak_1: Matrix, x_weak_2: Matrix,
                  y_onehot: np.ndarray, weights: np.ndarray, T: float) -> np.ndarray:
    """Blend given labels with the training network's average prediction.

    Only the network currently being trained contributes here; pseudo
    labels for the noisy set are the ones that use both networks.
    """
    p = (forward_softmax(net, x_weak_1) + forward_softmax(net, x_weak_2)) / 2.0
    return sharpen(blend_targets(y_onehot, p, weights), T)


def guess_pseudo_labels(twins: TwinNetworks, u_weak_1: Matrix, u_weak_2: Matrix,
                        T: float) -> np.ndarray:
    """Average both networks over both weak views, then sharpen."""
    q = sum(forward_softmax(net, u) for net in (twins.net1, twins.net2)
            for u in (u_weak_1, u_weak_2)) / 4.0
    return sharpen(q, T)


def mixup_with_lambda(x1: np.ndarray, t1: np.ndarray, x2: np.ndarray, t2: np.ndarray,
                      lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Convex combination of inputs and of targets with given per-row
    coefficients (already >= 0.5), taken in the dtype of the inputs; returns
    ``(inputs, targets)``."""
    lam = np.asarray(lam, dtype=x1.dtype).reshape(-1, 1)
    rest = 1.0 - lam
    inputs = lam * x1
    inputs += rest * x2
    targets = lam * t1
    targets += rest * t2
    return inputs, targets


def mixup(x1: np.ndarray, t1: np.ndarray, x2: np.ndarray, t2: np.ndarray, alpha: float,
          rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Beta(alpha, alpha) mixing with lambda' = max(lambda, 1 - lambda).

    The max keeps every mixed sample dominated by its first argument, so
    a clean batch stays mostly clean after mixing.
    """
    lam = rng.beta(alpha, alpha, size=len(x1))
    lam = np.maximum(lam, 1.0 - lam)
    return mixup_with_lambda(x1, t1, x2, t2, lam)


def mixmatch_assemble(inputs: np.ndarray, targets: np.ndarray, alpha: float,
                      rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Mix each entry of a MixMatch union against the entry at its own
    position in one shuffle of the union; the caller stacks the labeled
    entries first, so the mixed rows keep that order."""
    perm = rng.permutation(len(inputs))
    return mixup(inputs, targets, inputs[perm], targets[perm], alpha, rng)


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


def loss_lx(logits: Matrix, targets: np.ndarray, tape: GradientTape | None = None) -> Matrix:
    """Mean soft cross-entropy between target rows and softmax(logits)."""
    ls = logits.data - logits.data.max(axis=1, keepdims=True)
    e = np.exp(ls)
    ls -= np.log(e.sum(axis=1, keepdims=True))
    c = -1.0 / logits.rows
    out = np.array([[np.multiply(ls, targets, out=e).sum()]]) * c

    def bwd(g, tracked):
        g_ls = targets * (g * c)[0, 0]
        p = np.exp(ls)
        p *= g_ls.sum(axis=1, keepdims=True)
        g_ls -= p
        return (g_ls,)

    return kernel.record(tape, (logits,), kernel.wrap(out), bwd)


def loss_lu(logits: Matrix, targets: np.ndarray, tape: GradientTape | None = None) -> Matrix:
    """Mean squared Euclidean distance between targets and softmax(logits)."""
    p = softmax_in_place(logits.data.copy())
    diff = p - targets
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
    weights = np.full((1, n), 1.0 / n, dtype=p.dtype)
    mean_row = weights @ p
    c = -1.0 / num_classes
    out = np.array([[np.log(mean_row).sum()]]) * c
    out += -float(np.log(num_classes))   # a Python float, so it takes out's dtype

    def bwd(g, tracked):
        g_log = (g * c)[0, 0] / mean_row
        return (_softmax_grad(p, weights.T @ g_log),)

    return kernel.record(tape, (logits,), kernel.wrap(out), bwd)


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
    # the positives are the two pair bands, (2b, 2b+1) and (2b+1, 2b)
    stride = 2 * n + 2
    pos = np.stack((sim.flat[1::stride], sim.flat[n::stride]))
    # row-wise log-sum-exp over the off-diagonal similarities; exp(-inf) = 0
    np.fill_diagonal(sim, -np.inf)
    row_max = sim.max(axis=1, keepdims=True)
    sim -= row_max
    e = np.exp(sim, out=sim)
    s = e.sum(axis=1, keepdims=True)
    lse = row_max + np.log(s)
    diff = np.array([[lse.sum()]]) - np.array([[pos.sum()]])
    out = diff * (1.0 / n)

    def bwd(g, tracked):
        g_diff = (g * (1.0 / n))[0, 0]
        # a tape replays once, so the exponentials become the softmax weights in place
        w = np.divide(e, s, out=e)
        w *= g_diff
        w.flat[1::stride] -= g_diff
        w.flat[n::stride] -= g_diff
        w *= c
        g_z = w @ z_t.T
        g_z += (z.T @ w).T
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


def _rows(features: Matrix, idx: np.ndarray) -> np.ndarray:
    return features.data[idx]


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
    the network new matrices, views of a new row, because no step writes
    into an array it was given (``tests/test_inplace.py``), and packs a new
    gradient row.  A diverging step leaves the parameters from before it
    and the velocities it updated.

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
            row = sgd_step(row, np.concatenate([grads[p].ravel() for p in params]),
                           velocity, lr, hp.momentum, hp.weight_decay)
            if not np.isfinite(row).all():
                raise TrainingDivergedError(*where, next(
                    name for name, part, _ in parts if not np.isfinite(row[part]).all()))
            row.flags.writeable = False   # its views become the network's matrices
            params = [kernel.wrap(row[part].reshape(shape)) for _, part, shape in parts]
            net.params.update(zip(names, params))
            steps.append(values)
    return steps


def _ce_loss(net: NetworkParams, ds: LabeledDataset, targets_full: np.ndarray):
    """The loss function of CE steps: ``lx`` of a batch's logits against
    its rows of ``targets_full``."""
    def ce(tape: GradientTape, batch: np.ndarray):
        lx = loss_lx(forward_logits(net, kernel.wrap(_rows(ds.features, batch)), tape),
                     targets_full[batch], tape)
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


def select_for_network(probs: np.ndarray, ds: LabeledDataset,
                       flags: AblationFlags) -> tuple[DivergenceReport, SelectionResult]:
    """One full selection pass from ``probs``, the train-set prediction a
    network's half is selected by: the ``ensemble_softmax`` of both networks,
    or with ensembling off, the network's own ``forward_softmax``.
    """
    _check_columns(probs, ds.num_classes)
    report = divergences_from_probs(probs, ds.given_labels)
    d_cut = compute_cutoff(report)
    sel = select_clean(report, ds.given_labels, ds.num_classes, compute_filter_rate(report, d_cut),
                       flags.balancing, d_cut)
    return report, sel


def _interleave_two_views(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stack two per-sample views as adjacent rows: a0, b0, a1, b1, ..."""
    out = np.empty((2 * len(a), a.shape[1]), dtype=a.dtype)
    out[0::2] = a
    out[1::2] = b
    return out


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

    degenerate = None
    if not clean_batches:   # one step per (clean, noisy) pair, so none
        degenerate = "empty_clean"
        logger.warning("epoch %d net %d: clean set empty, no step made", epoch, net_index)
    elif not noisy_batches:
        degenerate = "empty_noisy"
        logger.warning("epoch %d net %d: noisy set empty, training on refined clean labels only",
                       epoch, net_index)
        noisy_batches = [sel.noisy_indices] * len(clean_batches)

    def views(idx: np.ndarray, rng: np.random.Generator) -> tuple:
        """Two weak, then two strong augmentations of the rows ``idx``, in draw
        order; only the weak ones, which the networks read, are matrices."""
        raw = _rows(ds.features, idx)
        return (kernel.wrap(weak_augment(raw, aug, rng)), kernel.wrap(weak_augment(raw, aug, rng)),
                strong_augment(raw, aug, rng), strong_augment(raw, aug, rng))

    def ssl_loss(tape: GradientTape, item) -> tuple[Matrix, dict[str, Matrix]]:
        it, (cb, ub) = item
        rng = np.random.default_rng([hp.seed, _S_ITER, epoch, net_index, it])
        xw1, xw2, xs1, xs2 = views(cb, rng)
        y_refined = refine_labels(net, xw1, xw2, targets_full[cb], weights[cb], hp.T)
        uw1, uw2, us1, us2 = views(ub, rng)
        q = guess_pseudo_labels(twins, uw1, uw2, hp.T)
        # the MixMatch union: each clean sample's two strong views, then each noisy sample's
        union = _interleave_two_views(np.vstack([xs1, us1]), np.vstack([xs2, us2]))
        inputs, targets = mixmatch_assemble(union, np.repeat(np.vstack([y_refined, q]), 2, axis=0),
                                            hp.alpha, rng)
        n_x = 2 * len(cb)

        logits_x = forward_logits(net, kernel.wrap(inputs[:n_x]), tape)
        lx = loss_lx(logits_x, targets[:n_x], tape)
        if len(ub):   # the unlabeled terms; an empty noisy batch leaves lu and lc at 0
            logits_u = forward_logits(net, kernel.wrap(inputs[n_x:]), tape)
            lu = loss_lu(logits_u, targets[n_x:], tape)
            lreg = loss_reg(kernel.concat_rows(logits_x, logits_u, tape), ds.num_classes, tape)
            lc = (loss_contrastive(forward_projection(net, kernel.wrap(union[n_x:]), tape),
                                   hp.kappa, tape) if flags.contrastive else Matrix.zeros(1, 1))
        else:
            lu = lc = Matrix.zeros(1, 1)
            lreg = loss_reg(logits_x, ds.num_classes, tape)
        return total_loss(lx, lu, lreg, lc, hp, tape), {"lx": lx, "lu": lu, "lreg": lreg, "lc": lc}

    steps = _sgd_steps(net, hp, lr, ALL_GROUPS, enumerate(zip(clean_batches, noisy_batches)),
                       ssl_loss, (epoch, net_index, "ssl"))
    return HalfEpochRecord(net_index, report, sel, _mean_losses(steps), degenerate)


def _mean_losses(steps: list[dict[str, float]]) -> dict[str, float]:
    """Each loss term's mean over the steps."""
    return {k: float(np.mean([terms[k] for terms in steps])) if steps else 0.0
            for k in _LOSS_TERMS}

