"""The fused forward/loss records against the primitive chains they replace.

`model.forward_logits`, `model.forward_projection` and the five loss
functions in `training` compute on raw arrays and put one record each on
the tape.  The reference functions below are those same computations
composed from the primitives of `reference_ops`, one tape record per
primitive.  The fused path must reproduce their loss values and every
parameter gradient bit for bit, not merely to a tolerance.

The last test counts the whole-dataset evaluation passes of a run.
"""

import dataclasses
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import reference_ops as ref
from conftest import serial_sgd_steps, ssl_epoch
from noisytrain import kernel, model, training
from noisytrain.data import AugmentationSpec, inject_symmetric_noise, make_gaussian_blobs
from noisytrain.experiment import run
from noisytrain.kernel import GradientTape, Matrix, backward
from noisytrain.model import (ALL_GROUPS, PHI, PSI, THETA, Arch, init_network, init_twins,
                              layout)
from noisytrain.training import AblationFlags, Hyperparams


# ---------------------------------------------------------------------------
# reference: the same math as a chain of primitives


def ref_forward_hidden(net, x, tape=None):
    p = net.params
    h1 = ref.relu(ref.add_row(ref.matmul(x, p["w1"], tape), p["b1"], tape), tape)
    return ref.relu(ref.add_row(ref.matmul(h1, p["w2"], tape), p["b2"], tape), tape)


def ref_forward_logits(net, x, tape=None):
    h = ref_forward_hidden(net, x, tape)
    return ref.add_row(ref.matmul(h, net.params["wc"], tape), net.params["bc"], tape)


def ref_forward_projection(net, x, tape=None):
    h = ref_forward_hidden(net, x, tape)
    z = ref.add_row(ref.matmul(h, net.params["wp"], tape), net.params["bp"], tape)
    return ref.l2_normalize_rows(z, tape)


def ref_loss_lx(logits, targets, tape=None):
    ls = ref.log_softmax_rows(logits, tape)
    total = ref.sum_all(ref.mul(ls, Matrix(targets), tape), tape)
    return ref.scale(total, -1.0 / logits.rows, tape)


def ref_loss_lu(logits, targets, tape=None):
    p = ref.softmax_rows(logits, tape)
    diff = ref.sub(p, Matrix(targets), tape)
    total = ref.sum_all(ref.mul(diff, diff, tape), tape)
    return ref.scale(total, 1.0 / logits.rows, tape)


def ref_loss_reg(logits, num_classes, tape=None):
    n = logits.rows
    p = ref.softmax_rows(logits, tape)
    mean_row = ref.matmul(Matrix(np.full((1, n), 1.0 / n)), p, tape)
    log_mean = ref.log(mean_row, tape)
    cross = ref.scale(ref.sum_all(log_mean, tape), -1.0 / num_classes, tape)
    return ref.add(cross, Matrix([[-np.log(num_classes)]]), tape)


def ref_loss_contrastive(embeddings, kappa, tape=None):
    n = embeddings.rows
    if n == 0:
        return Matrix([[0.0]])
    sim = ref.matmul(embeddings, ref.transpose(embeddings, tape), tape)
    sim_t = ref.scale(sim, 1.0 / kappa, tape)
    denom = ref.sum_all(ref.lse_offdiag_rows(sim_t, tape), tape)
    pos = ref.sum_all(ref.pair_bands(sim_t, tape), tape)
    return ref.scale(ref.sub(denom, pos, tape), 1.0 / n, tape)


def ref_total_loss(lx, lu, lreg, lc, hp, tape=None):
    semi = ref.add(lx, ref.scale(lu, hp.lambda_u, tape), tape)
    extra = ref.add(ref.scale(lreg, hp.lambda_r, tape),
                       ref.scale(lc, hp.lambda_c, tape), tape)
    return ref.add(semi, extra, tape)


REFERENCE = SimpleNamespace(
    forward_logits=ref_forward_logits, forward_projection=ref_forward_projection,
    loss_lx=ref_loss_lx, loss_lu=ref_loss_lu, loss_reg=ref_loss_reg,
    loss_contrastive=ref_loss_contrastive, total_loss=ref_total_loss)
FUSED = SimpleNamespace(
    forward_logits=model.forward_logits, forward_projection=model.forward_projection,
    loss_lx=training.loss_lx, loss_lu=training.loss_lu, loss_reg=training.loss_reg,
    loss_contrastive=training.loss_contrastive, total_loss=training.total_loss)

ARCH = Arch(in_dim=8, hidden=32, num_classes=4, embed_dim=16)
HP = Hyperparams()


def _case(seed):
    """A network and mixed inputs/soft targets shaped like one SSL iteration's.

    Shapes vary with the seed: BLAS may take a different code path, and
    so round differently, for a different shape.
    """
    rng = np.random.default_rng(seed)
    arch = Arch(in_dim=int(rng.choice([3, 8, 11])), hidden=int(rng.choice([16, 32, 64])),
                num_classes=int(rng.choice([3, 4, 10])), embed_dim=int(rng.choice([8, 16])))
    n_x, n_u = int(rng.integers(3, 65)), 2 * int(rng.integers(1, 33))
    alpha = np.full(arch.num_classes, 0.3)
    batch = {
        "x_in": Matrix(rng.normal(scale=3.0, size=(n_x, arch.in_dim))),
        "x_t": rng.dirichlet(alpha, size=n_x).astype(kernel.DTYPE),
        "u_in": Matrix(rng.normal(scale=3.0, size=(n_u, arch.in_dim))),
        "u_t": rng.dirichlet(alpha, size=n_u).astype(kernel.DTYPE),
    }
    return init_network(arch, seed=seed), batch


def _iteration(fns, net, b, *, noisy=True, contrastive=True):
    """One SSL iteration's tape, laid out as train_half_epoch lays it out."""
    tape = GradientTape()
    for name in ALL_GROUPS:
        tape.watch(net.params[name])
    logits_x = fns.forward_logits(net, b["x_in"], tape)
    lx = fns.loss_lx(logits_x, b["x_t"], tape)
    if noisy:
        logits_u = fns.forward_logits(net, b["u_in"], tape)
        lu = fns.loss_lu(logits_u, b["u_t"], tape)
        logits_all = kernel.concat_rows(logits_x, logits_u, tape)
    else:
        lu = Matrix([[0.0]])
        logits_all = logits_x
    lreg = fns.loss_reg(logits_all, net.arch.num_classes, tape)
    if noisy and contrastive:
        lc = fns.loss_contrastive(fns.forward_projection(net, b["u_in"], tape), HP.kappa, tape)
    else:
        lc = Matrix([[0.0]])
    ltot = fns.total_loss(lx, lu, lreg, lc, HP, tape)
    grads = backward(tape, ltot)
    values = [m.data.copy() for m in (lx, lu, lreg, lc, ltot)]
    return values, {name: grads[net.params[name]] for name in ALL_GROUPS}, tape.num_records


def _assert_identical(ref, fused):
    ref_values, ref_grads, _ = ref
    fused_values, fused_grads, _ = fused
    for a, b in zip(ref_values, fused_values):
        assert np.array_equal(a, b)
    assert ref_grads.keys() == fused_grads.keys()
    for name in ref_grads:
        assert np.array_equal(ref_grads[name], fused_grads[name]), name


@pytest.mark.parametrize("seed", range(40))
def test_full_ssl_iteration_bit_identical(seed):
    net, b = _case(seed)
    ref = _iteration(REFERENCE, net, b)
    fused = _iteration(FUSED, net, b)
    _assert_identical(ref, fused)
    assert ref[2] == 56
    assert fused[2] == 9
    assert all(np.any(g != 0.0) for g in fused[1].values())


@pytest.mark.parametrize("seed", range(100, 120))
def test_no_noisy_batch_bit_identical(seed):
    net, b = _case(seed)
    ref = _iteration(REFERENCE, net, b, noisy=False)
    fused = _iteration(FUSED, net, b, noisy=False)
    _assert_identical(ref, fused)
    assert fused[0][1][0, 0] == 0.0 and fused[0][3][0, 0] == 0.0
    for name in PSI:
        assert not np.any(fused[1][name])


@pytest.mark.parametrize("seed", range(100, 120))
def test_no_contrastive_bit_identical(seed):
    net, b = _case(seed)
    ref = _iteration(REFERENCE, net, b, contrastive=False)
    fused = _iteration(FUSED, net, b, contrastive=False)
    _assert_identical(ref, fused)
    assert fused[2] == 7


@pytest.mark.parametrize("seed", range(100, 120))
def test_warmup_ce_bit_identical(seed):
    net, b = _case(seed)

    def step(fns):
        tape = GradientTape()
        for name in THETA + PHI:
            tape.watch(net.params[name])
        ce = fns.loss_lx(fns.forward_logits(net, b["x_in"], tape), b["x_t"], tape)
        grads = backward(tape, ce)
        assert all(net.params[name] not in grads for name in PSI)
        return [ce.data], {name: grads[net.params[name]] for name in THETA + PHI}, tape.num_records

    ref, fused = step(REFERENCE), step(FUSED)
    _assert_identical(ref, fused)
    assert (ref[2], fused[2]) == (12, 2)


def test_untaped_values_bit_identical():
    net, b = _case(9)
    for ref_fn, fused_fn in ((ref_forward_logits, model.forward_logits),
                             (ref_forward_projection, model.forward_projection)):
        assert np.array_equal(ref_fn(net, b["u_in"]).data, fused_fn(net, b["u_in"]).data)


def _packed_and_serial_steps(seed, names):
    """Steps of ``names`` through ``training._sgd_steps`` and through the
    matrix-by-matrix reference, on two networks with one random start.

    Theta and phi may carry velocities from earlier steps (always, when psi
    is stepped too: warmup came first); psi's part of the velocity row is
    always zero at the start, as at the warmup-to-SSL handoff."""
    rng = np.random.default_rng(seed)
    rows = int(rng.integers(16, 257))
    arch = Arch(in_dim=int(rng.integers(1, 33)), hidden=int(rng.integers(1, 129)),
                num_classes=int(rng.integers(2, 11)), embed_dim=4)
    n = 3 * rows
    ds = SimpleNamespace(features=Matrix(rng.normal(scale=3.0, size=(n, arch.in_dim))))
    targets = rng.dirichlet(np.full(arch.num_classes, 0.3), size=n).astype(kernel.DTYPE)
    batches = np.split(rng.permutation(n), [rows, 2 * rows])
    hp = Hyperparams(lr=rng.uniform(0.01, 0.5), momentum=rng.uniform(0.0, 0.99),
                     weight_decay=rng.uniform(0.0, 1e-2))
    start = {k: rng.normal(size=m.shape).astype(kernel.DTYPE)
             for k, m in init_network(arch, seed).params.items()}
    nets = []
    for _ in range(2):   # non-zero biases, the same in both
        net = init_network(arch, seed)
        net.params.update({k: Matrix(v) for k, v in start.items()})
        nets.append(net)
    if seed % 2 or names == ALL_GROUPS:
        head = np.concatenate([rng.normal(size=nets[0].params[k].shape).ravel()
                               for k in THETA + PHI])
        for net in nets:
            net.velocity[:head.size] = head

    def loss_fn(net):
        if names == THETA + PHI:
            return training._ce_loss(net, ds, targets)

        def ssl(tape, batch):   # every group gets a gradient
            x = kernel.wrap(ds.features.data[batch])
            logits = model.forward_logits(net, x, tape)
            y = targets[batch]
            lx = training.loss_lx(logits, y, tape)
            lu = training.loss_lu(logits, y, tape)
            pairs = kernel.wrap(x.data[:len(batch) // 2 * 2])
            lc = training.loss_contrastive(model.forward_projection(net, pairs, tape),
                                           HP.kappa, tape)
            lreg = Matrix.zeros(1, 1)   # saturated random logits would make it -log 0
            terms = {"lx": lx, "lu": lu, "lreg": lreg, "lc": lc}
            return training.total_loss(lx, lu, lreg, lc, HP, tape), terms
        return ssl

    where = (0, 1, "warmup")
    packed = training._sgd_steps(nets[0], hp, hp.lr, names, batches, loss_fn(nets[0]), where)
    serial = serial_sgd_steps(nets[1], hp, hp.lr, names, batches, loss_fn(nets[1]), where)
    assert packed == serial
    assert all(np.array_equal(nets[0].params[k].data, nets[1].params[k].data)
               for k in ALL_GROUPS)
    assert np.array_equal(nets[0].velocity, nets[1].velocity)
    beyond = layout(arch)[len(names) - 1][1].stop
    assert not nets[0].velocity[beyond:].any()   # psi's part, when only theta and phi step
    assert all(not np.array_equal(nets[0].params[k].data, start[k]) for k in names)
    return nets[0], start


@pytest.mark.parametrize("seed", range(40))
def test_packed_ce_steps_match_matrix_by_matrix_steps(seed):
    """CE steps pack theta and phi into one row and update their prefix of
    the velocity row; their CE values, parameters and velocities have the
    bits of steps that update the six matrices one by one."""
    net, start = _packed_and_serial_steps(seed, THETA + PHI)
    assert all(np.array_equal(net.params[k].data, start[k]) for k in PSI)


@pytest.mark.parametrize("seed", range(40))
def test_packed_ssl_steps_match_matrix_by_matrix_steps(seed):
    """SSL steps pack all eight matrices; psi's part of the velocity row
    starts at zero while theta and phi bring theirs from warmup."""
    _packed_and_serial_steps(seed, ALL_GROUPS)


def test_training_loop_matches_reference_chain(monkeypatch):
    """Warmup and a whole SSL epoch agree bit for bit with the reference:
    primitive chains for the forwards and losses, and steps that update each
    parameter matrix on its own (``serial_sgd_steps``).
    """
    ds = inject_symmetric_noise(make_gaussian_blobs(3, 40, 4, 8.0, seed=2), 0.4, seed=3)
    hp = Hyperparams(seed=4, batch_size=16, warmup_epochs=1, total_epochs=3)
    aug = AugmentationSpec()
    packed_steps = training._sgd_steps

    def train(fns, steps):
        for name in vars(FUSED):
            monkeypatch.setattr(training, name, getattr(fns, name))
        monkeypatch.setattr(training, "_sgd_steps", steps)
        twins = init_twins(Arch(4, 16, 3, 6), seed=4)
        warmup_ce = training.warmup_train(twins, ds, hp, 0)
        halves = ssl_epoch(twins, ds, hp, aug, training.AblationFlags(), epoch=1)
        assert [h.degenerate for h in halves] == [None, None]
        assert all(h.losses["lc"] != 0.0 for h in halves)
        params = [m.data for net in (twins.net1, twins.net2) for m in net.params.values()]
        velocities = [twins.net1.velocity, twins.net2.velocity]
        return warmup_ce, [h.losses for h in halves], params, velocities

    ref = train(REFERENCE, serial_sgd_steps)
    fused = train(FUSED, packed_steps)
    assert ref[:2] == fused[:2]
    for ref_arrays, fused_arrays in zip(ref[2:], fused[2:]):
        assert all(np.array_equal(a, b) for a, b in zip(ref_arrays, fused_arrays))


def test_backward_drops_replayed_records():
    net, b = _case(1)
    _, _, num_records = _iteration(FUSED, net, b)
    assert num_records == 9
    tape = GradientTape()
    tape.watch(net.params["wc"])
    loss = training.loss_lx(model.forward_logits(net, b["x_in"], tape), b["x_t"], tape)
    backward(tape, loss)
    assert tape._records == []
    assert tape.num_records == 2


def test_untracked_inputs_record_nothing():
    tape = GradientTape()
    logits = Matrix(np.random.default_rng(0).normal(size=(4, 3)))
    targets = np.full((4, 3), 1.0 / 3.0)
    training.loss_lx(logits, targets, tape)
    training.total_loss(Matrix([[1.0]]), Matrix([[0.0]]), Matrix([[0.0]]), Matrix([[0.0]]), HP, tape)
    assert tape.num_records == 0


# ---------------------------------------------------------------------------
# whole-dataset evaluation passes of a run


@pytest.fixture
def counted_forwards(monkeypatch):
    """The input of every forward_softmax call, wherever the library holds the name."""
    calls = []
    original = model.forward_softmax

    def counting(net, x):
        calls.append(x)
        return original(net, x)
    for module in list(sys.modules.values()):
        if module is not None and module.__name__.startswith("noisytrain") and \
                getattr(module, "forward_softmax", None) is original:
            monkeypatch.setattr(module, "forward_softmax", counting)
    return calls


def test_run_reuses_train_set_forwards(counted_forwards):
    """``experiment.run`` evaluates each set twice per epoch, with or without
    ensembling: both networks on the train set after a warmup epoch, one
    network right after its half of an SSL epoch, and both on the test set
    once per epoch.  A continuation evaluates its start once more, at its
    first SSL epoch."""
    train = inject_symmetric_noise(make_gaussian_blobs(3, 20, 4, 8.0, seed=8), 0.4, seed=9)
    test = make_gaussian_blobs(3, 10, 4, 8.0, seed=10)
    hp = Hyperparams(seed=1, batch_size=16, warmup_epochs=1, total_epochs=3)

    def passes(**kwargs):
        counted_forwards.clear()
        result = run(train, test, **kwargs, hidden=8, embed_dim=4, aug=AugmentationSpec())
        return result, [sum(1 for x in counted_forwards if x is ds.features)
                        for ds in (train, test)]
    for flags in (None, AblationFlags(ensemble=False)):
        assert passes(hp=hp, flags=flags)[1] == [2 * 3, 2 * 3]
        warm, _ = passes(hp=dataclasses.replace(hp, total_epochs=1), flags=flags)
        assert passes(hp=hp, flags=flags, start=warm)[1] == [2 + 2 * 2, 2 * 2]
