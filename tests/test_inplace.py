"""The in-place rules of the training hot path.

A step may write in place only into arrays it allocated itself, and into
the network's velocity row.  It never writes into its inputs: features,
targets, parameters, gradients handed to the optimizer, predictions
handed to selection and metrics, another tape record's output or the
incoming gradient of a backward closure.  The tripwire below makes all of those read-only, so a
write into any of them raises.  The other tests pin the in-place forms to
the plain expressions they replaced, bit for bit.
"""

import numpy as np
import pytest

import reference_ops as ref
from noisytrain import kernel, training
from noisytrain.data import AugmentationSpec, inject_symmetric_noise, make_gaussian_blobs
from noisytrain.kernel import Matrix, sgd_step
from noisytrain.metrics import accuracy
from noisytrain.model import (ALL_GROUPS, PHI, THETA, Arch, ensemble_softmax,
                              forward_logits, forward_softmax, init_network, init_twins)
from noisytrain.training import AblationFlags, Hyperparams


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _freeze_all(*values) -> None:
    """Make the array of each Matrix and each array among ``values`` read-only."""
    for v in values:
        if isinstance(v, (Matrix, np.ndarray)):
            _freeze(v.data if isinstance(v, Matrix) else v)


@pytest.fixture
def frozen_inputs(monkeypatch):
    """Make every array that enters a step, or passes between its stages, read-only."""
    def frozen(fn):
        def call(*args):
            out = fn(*args)
            _freeze_all(out)
            return out
        return call

    def frozen_args(fn):
        def call(*args):
            _freeze_all(*args)
            return fn(*args)
        return call

    def frozen_sgd_step(p, g, v, *settings):
        return _freeze(sgd_step(_freeze(p), _freeze(g), v, *settings))

    record = kernel.record

    def frozen_record(tape, inputs, out, backward_fn):
        for m in (*inputs, out):
            _freeze(m.data)

        def bwd(g, tracked):
            return backward_fn(_freeze(g), tracked)
        return record(tape, inputs, out, bwd)

    # targets, a batch's rows, and what one stage of a step hands the next
    for name in ("one_hot", "_rows", "weak_augment", "strong_augment", "sharpen",
                 "_interleave_two_views"):
        monkeypatch.setattr(training, name, frozen(getattr(training, name)))
    # the targets, each row repeated for its two views, come straight from np.repeat
    monkeypatch.setattr(training, "mixmatch_assemble", frozen_args(training.mixmatch_assemble))
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
    return train, test, twins, hp


def test_a_step_writes_into_no_array_it_was_given(frozen_inputs):
    train, test, twins, hp = _tiny()
    targets = training.one_hot(train.given_labels, train.num_classes)
    training._sgd_steps(twins.net1, hp, hp.lr, THETA + PHI, [np.arange(16)],
                        training._ce_loss(twins.net1, train, targets), (0, 1, "warmup"))
    training.warmup_train(twins, train, hp, 0)

    def predictions(ds):   # read-only, as every prediction is
        return ensemble_softmax(*(forward_softmax(net, ds.features)
                                  for net in (twins.net1, twins.net2)))
    report, sel = training.select_for_network(predictions(train), train, AblationFlags())
    rec = training.train_half_epoch(twins, 1, train, hp, AugmentationSpec(), AblationFlags(), 1,
                                    report, sel)
    assert rec.degenerate is None and rec.losses["lc"] != 0.0   # every term ran
    assert 0.0 <= accuracy(predictions(test), test.true_labels) <= 1.0
    assert 0.0 <= accuracy(predictions(train), train.given_labels) <= 1.0


def test_tripwire_catches_a_write_into_a_parameter(frozen_inputs, monkeypatch):
    train, _, twins, hp = _tiny()

    def writing_step(p, g, v, learning_rate, momentum, weight_decay):
        p -= learning_rate * g
        return p
    monkeypatch.setattr(kernel, "sgd_step", writing_step)
    monkeypatch.setattr(training, "sgd_step", writing_step)
    targets = training.one_hot(train.given_labels, train.num_classes)
    with pytest.raises(ValueError, match="read-only"):
        training._sgd_steps(twins.net1, hp, hp.lr, THETA + PHI, [np.arange(16)],
                            training._ce_loss(twins.net1, train, targets), (0, 1, "warmup"))


def _ref_sgd_step(v, g, p, momentum, weight_decay, lr):
    v = momentum * v + g + weight_decay * p
    return v, p - lr * v


def test_sgd_step_matches_the_reference_update_bit_for_bit():
    rng = np.random.default_rng(7)
    net = init_network(Arch(5, 8, 3, 4), seed=2)
    params = {n: rng.standard_normal(m.shape) for n, m in net.params.items()}
    lr, momentum, weight_decay = 0.05, 0.9, 5e-4
    velocity: dict[str, np.ndarray] = {}
    ref_v: dict[str, np.ndarray] = {}
    for step in range(5):
        names = THETA + PHI if step < 2 else ALL_GROUPS   # psi joins late, as after warmup
        for n in names:
            p = params[n]
            g = rng.standard_normal(p.shape) * 10.0 ** (step - 2)
            before = p.copy()
            v = velocity.setdefault(n, np.zeros(p.shape))
            updated = sgd_step(p, g, v, lr, momentum, weight_decay)
            assert p.tobytes() == before.tobytes()       # the input is left untouched
            ref_v[n], expected = _ref_sgd_step(ref_v.get(n, np.zeros(p.shape)), g, p,
                                               momentum, weight_decay, lr)
            assert v.tobytes() == ref_v[n].tobytes()
            assert updated.tobytes() == expected.tobytes()
            assert updated is not p
            assert not np.shares_memory(updated, v)
            params[n] = updated
    assert set(velocity) == set(ALL_GROUPS)


@pytest.mark.parametrize("seed", range(20))
def test_forward_softmax_equals_softmax_rows_of_logits(seed):
    rng = np.random.default_rng(seed)
    arch = Arch(int(rng.integers(1, 12)), int(rng.integers(1, 40)),
                int(rng.integers(1, 11)), int(rng.integers(1, 6)))
    net = init_network(arch, seed=seed)
    x = Matrix(rng.standard_normal((int(rng.integers(1, 130)), arch.in_dim)) * 3.0)
    expected = ref.softmax_rows(forward_logits(net, x)).data
    assert forward_softmax(net, x).tobytes() == expected.tobytes()
