import multiprocessing

import numpy as np
import pytest

from noisytrain import training
from noisytrain.data import batch_iterator
from noisytrain.kernel import GradientTape, Matrix, backward, wrap
from noisytrain.model import PHI, THETA


def finite_difference_grad(fn, mats, h=1e-5):
    """Central finite differences of fn() w.r.t. every entry of each matrix.

    fn must recompute the full forward pass from the matrices' current
    contents; entries are perturbed in place and restored.
    """
    grads = []
    for m in mats:
        g = np.zeros(m.shape)
        flat = m.data.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            f_plus = fn()
            flat[i] = orig - h
            f_minus = fn()
            flat[i] = orig
            gflat[i] = (f_plus - f_minus) / (2 * h)
        grads.append(g)
    return grads


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Elementwise |a - n| / max(|a|, |n|), treating near-zero pairs as exact."""
    err = 0.0
    for a, n in zip(analytic.reshape(-1), numeric.reshape(-1)):
        denom = max(abs(a), abs(n))
        if denom < 1e-7:
            continue
        err = max(err, abs(a - n) / denom)
    return err


@pytest.fixture(autouse=True)
def no_child_process_left():
    """`cmd_ablate` runs its arms in worker processes; none may outlive a test."""
    yield
    assert multiprocessing.active_children() == []


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_matrix(rng, rows, cols, lo=-1.0, hi=1.0) -> Matrix:
    return Matrix(rng.uniform(lo, hi, size=(rows, cols)))


def serial_warmup(twins, opts, ds, hp, epochs, epoch_offset=0):
    """Warmup one CE step at a time, each updating theta and phi matrix by
    matrix through ``training._update_params`` (one ``sgd_step`` entry per
    parameter): the reference for ``training._ce_steps``, which packs them
    into one row.  Returns the mean CE per epoch."""
    targets = training.one_hot(ds.given_labels, ds.num_classes)
    names = THETA + PHI
    losses = []
    for epoch in range(epoch_offset, epoch_offset + epochs):
        ce = []
        for k, (net, opt) in enumerate(zip((twins.net1, twins.net2), opts), start=1):
            opt.learning_rate = training.decayed_lr(hp, epoch)
            for batch in batch_iterator(np.arange(len(ds)), hp.batch_size,
                                        (hp.seed, training._S_WARMUP, k), epoch):
                with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                    tape = GradientTape()
                    for p in net.group(names).values():
                        tape.watch(p)
                    logits = training.forward_logits(net, wrap(ds.features.data[batch]), tape)
                    lx = training.loss_lx(logits, wrap(targets.data[batch]), tape)
                    grads = backward(tape, lx)
                    training._update_params(net, opt, grads, names, {"lx": lx},
                                            (epoch, k, "warmup"))
                ce.append(lx.item())
        losses.append(float(np.mean(ce)))
    return losses
