import multiprocessing

import numpy as np
import pytest

from noisytrain import training
from noisytrain.kernel import GradientTape, Matrix, backward, sgd_step, wrap
from noisytrain.model import NetworkParams, ensemble_softmax, forward_softmax, layout


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
    """A float64 matrix of uniform draws: formula and gradient tests run in
    float64, through the same functions that train in float32."""
    return wrap(rng.uniform(lo, hi, size=(rows, cols)))


def f64(values) -> Matrix:
    """``values`` as a float64 matrix (``Matrix(values)`` rounds to float32)."""
    return wrap(np.array(values, dtype=np.float64, ndmin=2))


def as_float64(net: NetworkParams) -> NetworkParams:
    """A copy of ``net`` whose parameters, and so its velocity row, are float64."""
    return NetworkParams(net.arch, net.seed,
                         {k: wrap(m.data.astype(np.float64)) for k, m in net.params.items()})


def serial_sgd_steps(net, hp, lr, names, items, loss_fn, where):
    """``training._sgd_steps`` one matrix at a time: the reference for its
    packed row.  Each step makes one ``sgd_step`` call per parameter, in
    the order of ``names``, against that parameter's view of the network's
    velocity row, then checks the updated parameters in that order."""
    views = {name: net.velocity[part].reshape(shape) for name, part, shape in layout(net.arch)}
    steps = []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for item in items:
            tape = GradientTape()
            group = {name: net.params[name] for name in names}
            for p in group.values():
                tape.watch(p)
            loss, terms = loss_fn(tape, item)
            grads = backward(tape, loss)
            for name, term in terms.items():
                if not np.isfinite(term.data).all():
                    raise training.TrainingDivergedError(*where, name)
            updated = {}
            for name, p in group.items():
                updated[name] = wrap(sgd_step(p.data, grads[p], views[name],
                                              lr, hp.momentum, hp.weight_decay))
            for name, p in updated.items():
                if not np.isfinite(p.data).all():
                    raise training.TrainingDivergedError(*where, name)
            net.params.update(updated)
            steps.append({name: term.item() for name, term in terms.items()})
    return steps


def warmup_epochs(twins, ds, hp, epochs):
    """``training.warmup_train`` for epochs 0 .. ``epochs - 1``; returns each
    epoch's mean CE."""
    return [training.warmup_train(twins, ds, hp, epoch) for epoch in range(epochs)]


def select(twins, net_index, ds, flags):
    """``training.select_for_network`` from the prediction ``experiment.run``
    hands it, evaluated here: both networks' ensemble, or with ensembling
    off, the network's own softmax."""
    probs = [forward_softmax(net, ds.features) for net in (twins.net1, twins.net2)]
    return training.select_for_network(
        ensemble_softmax(*probs) if flags.ensemble else probs[net_index - 1], ds, flags)


def ssl_epoch(twins, ds, hp, aug, flags, epoch):
    """One SSL epoch as ``experiment.run`` drives it: a fresh selection
    before each network's half; returns the two half-epoch records."""
    halves = []
    for net_index in (1, 2):
        report, sel = select(twins, net_index, ds, flags)
        halves.append(training.train_half_epoch(twins, net_index, ds, hp, aug, flags, epoch,
                                                report, sel))
    return halves
