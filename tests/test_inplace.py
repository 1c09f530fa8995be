"""The in-place rules of the training hot path.

A step may write in place only into arrays it allocated itself, and into
the optimizer's velocity.  It never writes into its inputs: features,
targets, parameters, gradients handed to the optimizer, memoized
softmaxes, another tape record's output or the incoming gradient of a
backward closure.  The tripwire below makes all of those read-only, so a
write into any of them raises.  The other tests pin the in-place forms to
the plain expressions they replaced, bit for bit.
"""

import numpy as np
import pytest

import reference_ops as ref
from noisytrain import kernel, training
from noisytrain.data import AugmentationSpec, inject_symmetric_noise, make_gaussian_blobs
from noisytrain.kernel import Matrix, OptimizerState, sgd_step
from noisytrain.metrics import accuracy
from noisytrain.model import (ALL_GROUPS, PHI, THETA, Arch, dataset_softmax,
                              forward_logits, forward_softmax, init_network, init_twins)
from noisytrain.selection import CutoffParams
from noisytrain.training import AblationFlags, Hyperparams


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@pytest.fixture
def frozen_inputs(monkeypatch):
    """Make every array that enters a step, or passes between its stages, read-only."""
    def frozen(fn):
        def call(*args):
            out = fn(*args)
            _freeze(out.data)
            return out
        return call

    def frozen_sgd_step(state, params, grads):
        for m in (*params.values(), *grads.values()):
            _freeze(m.data)
        updated = sgd_step(state, params, grads)
        for m in updated.values():
            _freeze(m.data)
        return updated

    record = kernel.record

    def frozen_record(tape, inputs, out, backward_fn):
        for m in (*inputs, out):
            _freeze(m.data)

        def bwd(g, tracked):
            return backward_fn(_freeze(g), tracked)
        return record(tape, inputs, out, bwd)

    # targets, a batch's rows, and what one stage of a step hands the next
    for name in ("one_hot", "_rows", "weak_augment", "strong_augment", "sharpen",
                 "_interleave_two_views", "_repeat_rows_twice"):
        monkeypatch.setattr(training, name, frozen(getattr(training, name)))
    monkeypatch.setattr(training, "sgd_step", frozen_sgd_step)
    monkeypatch.setattr(kernel, "record", frozen_record)


def _tiny(seed=3):
    train = make_gaussian_blobs(3, 30, 4, 8.0, seed=seed)
    train = inject_symmetric_noise(train, 0.4, seed=seed + 1)
    test = make_gaussian_blobs(3, 10, 4, 8.0, seed=seed + 2)
    for ds in (train, test):
        _freeze(ds.features.data)
    twins = init_twins(Arch(4, 16, 3, 4), seed=seed)
    for net in (twins.net1, twins.net2):
        for m in net.params.values():
            _freeze(m.data)
    hp = Hyperparams(seed=seed, batch_size=16, warmup_epochs=1, total_epochs=3)
    opts = (OptimizerState(hp.lr, hp.momentum, hp.weight_decay),
            OptimizerState(hp.lr, hp.momentum, hp.weight_decay))
    return train, test, twins, hp, opts


def test_a_step_writes_into_no_array_it_was_given(frozen_inputs):
    train, test, twins, hp, opts = _tiny()
    targets = training.one_hot(train.given_labels, train.num_classes)
    training._ce_steps(twins.net1, opts[0], train, targets, [np.arange(16)], (0, 1, "warmup"))
    training.warmup_train(twins, opts, train, hp, epochs=1)
    rec = training.train_half_epoch(twins, 1, opts, train, hp, AugmentationSpec(),
                                    CutoffParams(), AblationFlags(), epoch=1)
    assert rec.degenerate is None and rec.losses["lc"] != 0.0   # every term ran
    for net in (twins.net1, twins.net2):
        probs = dataset_softmax(net, test.features)
        assert not probs.data.flags.writeable
    assert 0.0 <= accuracy(twins, test.features, test.true_labels) <= 1.0
    assert 0.0 <= accuracy(twins, train.features, train.given_labels) <= 1.0


def test_tripwire_catches_a_write_into_a_parameter(frozen_inputs, monkeypatch):
    train, _, twins, _, opts = _tiny()

    def writing_step(state, params, grads):
        for name, p in params.items():
            p.data -= state.learning_rate * grads[name].data
        return dict(params)
    monkeypatch.setattr(kernel, "sgd_step", writing_step)
    monkeypatch.setattr(training, "sgd_step", writing_step)
    targets = training.one_hot(train.given_labels, train.num_classes)
    with pytest.raises(ValueError, match="read-only"):
        training._ce_steps(twins.net1, opts[0], train, targets, [np.arange(16)], (0, 1, "warmup"))


def _ref_sgd_step(v, g, p, momentum, weight_decay, lr):
    v = momentum * v + g + weight_decay * p
    return v, p - lr * v


def test_sgd_step_matches_the_reference_update_bit_for_bit():
    rng = np.random.default_rng(7)
    net = init_network(Arch(5, 8, 3, 4), seed=2)
    params = {n: Matrix(rng.standard_normal(m.shape)) for n, m in net.params.items()}
    state = OptimizerState(0.05, momentum=0.9, weight_decay=5e-4)
    ref_v: dict[str, np.ndarray] = {}
    for step in range(5):
        names = THETA + PHI if step < 2 else ALL_GROUPS   # psi joins late, as after warmup
        group = {n: params[n] for n in names}
        grads = {n: kernel.wrap(rng.standard_normal(p.shape) * 10.0 ** (step - 2))
                 for n, p in group.items()}
        before = {n: p.data.copy() for n, p in group.items()}
        updated = sgd_step(state, group, grads)
        for n, p in group.items():
            assert p.data.tobytes() == before[n].tobytes()       # the input is left untouched
            v, expected = _ref_sgd_step(ref_v.get(n, np.zeros(p.shape)), grads[n].data,
                                        p.data, state.momentum, state.weight_decay,
                                        state.learning_rate)
            ref_v[n] = v
            assert state.velocity[n].tobytes() == v.tobytes()
            assert updated[n].data.tobytes() == expected.tobytes()
            assert updated[n] is not p
            assert not np.shares_memory(updated[n].data, state.velocity[n])
        params.update(updated)
    assert set(state.velocity) == set(ALL_GROUPS)


@pytest.mark.parametrize("seed", range(20))
def test_forward_softmax_equals_softmax_rows_of_logits(seed):
    rng = np.random.default_rng(seed)
    arch = Arch(int(rng.integers(1, 12)), int(rng.integers(1, 40)),
                int(rng.integers(1, 11)), int(rng.integers(1, 6)))
    net = init_network(arch, seed=seed)
    x = Matrix(rng.standard_normal((int(rng.integers(1, 130)), arch.in_dim)) * 3.0)
    expected = ref.softmax_rows(forward_logits(net, x)).data
    assert forward_softmax(net, x).data.tobytes() == expected.tobytes()


def test_pair_mask_is_cached_and_read_only():
    for n in (2, 8, 128):
        mask = training._pair_mask(n)
        assert training._pair_mask(n) is mask
        assert not mask.flags.writeable
        assert mask.sum() == n and (mask == mask.T).all()
        with pytest.raises(ValueError, match="read-only"):
            mask[0, 0] = 1.0
