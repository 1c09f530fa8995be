"""The fused forward/loss records against the primitive chains they replace.

`model.forward_logits`, `model.forward_projection` and the five loss
functions in `training` compute on raw arrays and put one record each on
the tape.  The reference functions below are those same computations
composed from the primitives of `reference_ops`, one tape record per
primitive.  The fused path must reproduce their loss values and every
parameter gradient bit for bit, not merely to a tolerance.

The second half covers the whole-dataset softmax memo on each network.
"""

from types import SimpleNamespace

import numpy as np
import pytest

import reference_ops as ref
from conftest import serial_warmup
from noisytrain import kernel, model, training
from noisytrain.data import AugmentationSpec, inject_symmetric_noise, make_gaussian_blobs
from noisytrain.experiment import run
from noisytrain.kernel import GradientTape, Matrix, OptimizerState, backward
from noisytrain.model import (ALL_GROUPS, PHI, PSI, THETA, Arch, TwinNetworks,
                              dataset_softmax, ensemble_softmax, forward_softmax,
                              init_network, init_twins)
from noisytrain.training import Hyperparams, _update_params


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
    total = ref.sum_all(ref.mul(ls, targets, tape), tape)
    return ref.scale(total, -1.0 / logits.rows, tape)


def ref_loss_lu(logits, targets, tape=None):
    p = ref.softmax_rows(logits, tape)
    diff = ref.sub(p, targets, tape)
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
    mask = np.zeros((n, n))
    idx = np.arange(n)
    mask[idx, idx ^ 1] = 1.0
    sim = ref.matmul(embeddings, ref.transpose(embeddings, tape), tape)
    sim_t = ref.scale(sim, 1.0 / kappa, tape)
    denom = ref.sum_all(ref.lse_offdiag_rows(sim_t, tape), tape)
    pos = ref.sum_all(ref.mul(sim_t, Matrix(mask), tape), tape)
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
        "x_t": Matrix(rng.dirichlet(alpha, size=n_x)),
        "u_in": Matrix(rng.normal(scale=3.0, size=(n_u, arch.in_dim))),
        "u_t": Matrix(rng.dirichlet(alpha, size=n_u)),
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
    return values, {name: grads[net.params[name]].data for name in ALL_GROUPS}, tape.num_records


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
        return [ce.data], {name: grads[net.params[name]].data for name in THETA + PHI}, tape.num_records

    ref, fused = step(REFERENCE), step(FUSED)
    _assert_identical(ref, fused)
    assert (ref[2], fused[2]) == (12, 2)


def test_untaped_values_bit_identical():
    net, b = _case(9)
    for ref_fn, fused_fn in ((ref_forward_logits, model.forward_logits),
                             (ref_forward_projection, model.forward_projection)):
        assert np.array_equal(ref_fn(net, b["u_in"]).data, fused_fn(net, b["u_in"]).data)


@pytest.mark.parametrize("seed", range(40))
def test_packed_ce_steps_match_matrix_by_matrix_steps(seed):
    """``_ce_steps`` packs theta and phi, and their velocities, into one row
    each; its CE values, parameters and velocities have the bits of steps
    that update the six matrices one by one (``_update_params``)."""
    rng = np.random.default_rng(seed)
    rows = int(rng.integers(16, 257))
    arch = Arch(in_dim=int(rng.integers(1, 33)), hidden=int(rng.integers(1, 129)),
                num_classes=int(rng.integers(2, 11)), embed_dim=4)
    names = THETA + PHI
    n = 3 * rows
    ds = SimpleNamespace(features=Matrix(rng.normal(scale=3.0, size=(n, arch.in_dim))))
    targets = Matrix(rng.dirichlet(np.full(arch.num_classes, 0.3), size=n))
    batches = np.split(rng.permutation(n), [rows, 2 * rows])
    opt_args = (rng.uniform(0.01, 0.5), rng.uniform(0.0, 0.99), rng.uniform(0.0, 1e-2))
    start = {k: rng.normal(size=m.shape) for k, m in init_network(arch, seed).params.items()}
    nets, opts = [], []
    for _ in range(2):   # non-zero biases, the same in both
        net = init_network(arch, seed)
        net.params.update({k: Matrix(v) for k, v in start.items()})
        nets.append(net)
        opts.append(OptimizerState(*opt_args))
    if seed % 2:   # a velocity from earlier steps; otherwise the first steps create it
        velocity = {k: rng.normal(size=nets[0].params[k].shape) for k in names}
        for opt in opts:
            opt.velocity = {k: v.copy() for k, v in velocity.items()}

    where = (0, 1, "warmup")
    packed = training._ce_steps(nets[0], opts[0], ds, targets, batches, where)
    single = []
    for batch in batches:
        tape = GradientTape()
        for p in nets[1].group(names).values():
            tape.watch(p)
        logits = model.forward_logits(nets[1], kernel.wrap(ds.features.data[batch]), tape)
        lx = training.loss_lx(logits, kernel.wrap(targets.data[batch]), tape)
        _update_params(nets[1], opts[1], backward(tape, lx), names, {"lx": lx}, where)
        single.append(lx.item())
    assert packed == single
    assert all(np.array_equal(nets[0].params[k].data, nets[1].params[k].data)
               for k in ALL_GROUPS)
    assert opts[0].velocity.keys() == opts[1].velocity.keys() == set(names)
    assert all(np.array_equal(opts[0].velocity[k], opts[1].velocity[k]) for k in names)


def test_training_loop_matches_reference_chain(monkeypatch):
    """Whole half-epochs and warmup: parameters agree bit for bit.

    The reference warms up through the primitive chain and updates each
    parameter matrix on its own; the fused path packs theta and phi into one
    row (``training._ce_steps``).
    """
    ds = inject_symmetric_noise(make_gaussian_blobs(3, 40, 4, 8.0, seed=2), 0.4, seed=3)
    hp = Hyperparams(seed=4, batch_size=16, warmup_epochs=1, total_epochs=3)
    aug = AugmentationSpec()

    def train(fns):
        for name in vars(FUSED):
            monkeypatch.setattr(training, name, getattr(fns, name))
        twins = init_twins(Arch(4, 16, 3, 6), seed=4)
        opts = (OptimizerState(hp.lr, hp.momentum, hp.weight_decay),
                OptimizerState(hp.lr, hp.momentum, hp.weight_decay))
        if fns is REFERENCE:
            warmup_ce = serial_warmup(twins, opts, ds, hp, epochs=1)
        else:
            warmup_ce = training.warmup_train(twins, opts, ds, hp, epochs=1)
        training.train_epoch(twins, opts, ds, hp, aug, training.CutoffParams(),
                             training.AblationFlags(), epoch=1)
        return warmup_ce, [m.data for net in (twins.net1, twins.net2) for m in net.params.values()]

    ref_ce, ref = train(REFERENCE)
    fused_ce, fused = train(FUSED)
    assert ref_ce == fused_ce
    assert all(np.array_equal(a, b) for a, b in zip(ref, fused))


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
    targets = Matrix(np.full((4, 3), 1.0 / 3.0))
    training.loss_lx(logits, targets, tape)
    training.total_loss(Matrix([[1.0]]), Matrix([[0.0]]), Matrix([[0.0]]), Matrix([[0.0]]), HP, tape)
    assert tape.num_records == 0


# ---------------------------------------------------------------------------
# whole-dataset softmax memo


@pytest.fixture
def counted_forwards(monkeypatch):
    """Count the forward_softmax calls dataset_softmax makes."""
    calls = []
    original = model.forward_softmax

    def counting(net, x):
        calls.append(x)
        return original(net, x)
    monkeypatch.setattr(model, "forward_softmax", counting)
    return calls


def _features(seed, rows=30):
    return Matrix(np.random.default_rng(seed).normal(size=(rows, ARCH.in_dim)))


def test_memo_hit_needs_same_features_and_parameters(counted_forwards):
    net = init_network(ARCH, seed=2)
    feats = _features(0)
    first = dataset_softmax(net, feats)
    again = dataset_softmax(net, feats)
    assert again is first
    assert len(counted_forwards) == 1
    assert np.array_equal(first.data, forward_softmax(net, feats).data)
    with pytest.raises(ValueError):
        first.data[0, 0] = 0.5   # shared between callers, so read-only

    # equal parameter values in new matrix objects are a different parameter set
    net.params["w1"] = Matrix(net.params["w1"].data)
    dataset_softmax(net, feats)
    assert len(counted_forwards) == 2


def test_memo_recomputes_after_update(counted_forwards):
    net = init_network(ARCH, seed=3)
    feats = _features(1)
    before = dataset_softmax(net, feats)
    grads = {p: Matrix(np.full(p.shape, 0.1)) for p in net.params.values()}
    _update_params(net, OptimizerState(0.5), grads, THETA + PHI, {}, (0, 1, "warmup"))
    after = dataset_softmax(net, feats)
    assert len(counted_forwards) == 2
    assert not np.array_equal(before.data, after.data)
    assert np.array_equal(after.data, forward_softmax(net, feats).data)


def test_memo_misses_other_features_object(counted_forwards):
    net = init_network(ARCH, seed=4)
    feats = _features(2)
    dataset_softmax(net, feats)
    same_values = Matrix(feats.data)
    out = dataset_softmax(net, same_values)
    assert len(counted_forwards) == 2
    assert counted_forwards[-1] is same_values
    assert np.array_equal(out.data, dataset_softmax(net, feats).data)
    assert len(counted_forwards) == 2   # both still remembered


def test_memo_is_bounded(counted_forwards):
    net = init_network(ARCH, seed=5)
    feature_sets = [_features(s) for s in range(6)]
    for feats in feature_sets:
        dataset_softmax(net, feats)
    assert len(net.softmax_memo) == model._SOFTMAX_MEMO_SIZE
    dataset_softmax(net, feature_sets[0])   # evicted long ago
    assert len(counted_forwards) == 7


def test_identical_twins_share_one_forward(counted_forwards):
    net = init_network(ARCH, seed=6)
    feats = _features(3)
    ens = ensemble_softmax(TwinNetworks(net, net), feats)
    assert len(counted_forwards) == 1
    assert np.array_equal(ens.data, forward_softmax(net, feats).data)


def test_run_reuses_train_set_forwards(counted_forwards):
    """Per SSL epoch only 2 of the 6 train-set forwards are computed.

    The end-of-epoch accuracy forward is the next epoch's first selection,
    net 2 is unchanged during net 1's half, and net 1 after its half is
    already in its end-of-epoch state.
    """
    train = inject_symmetric_noise(make_gaussian_blobs(3, 20, 4, 8.0, seed=8), 0.4, seed=9)
    test = make_gaussian_blobs(3, 10, 4, 8.0, seed=10)
    hp = Hyperparams(seed=1, batch_size=16, warmup_epochs=1, total_epochs=3)
    run(train, test, hp, hidden=8, embed_dim=4, aug=AugmentationSpec())
    train_forwards = sum(1 for x in counted_forwards if x is train.features)
    assert train_forwards == 2 + 2 * 2   # warmup accuracy, then 2 per SSL epoch
