"""The benchmark under bench/ hooks functions of this package by name.

bench/ is frozen (its metrics must stay comparable across changes) and
its own tests run outside this suite, so these checks keep a refactor
here from silently unhooking a span, a counter or the set-up timer.
bench/tracer.py is parsed, not imported.
"""

import ast
import importlib
import inspect
import os
import sys

import pytest

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "bench", "tracer.py")


def _spans() -> dict:
    with open(TRACER) as f:
        tree = ast.parse(f.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracer.py no longer defines SPANS")


def _function(module: str, name: str):
    return getattr(importlib.import_module(f"noisytrain.{module}"), name)


def _rebind(monkeypatch, original, wrapper) -> None:
    """Like the tracer, point every ``noisytrain`` module's reference to ``original`` at ``wrapper``."""
    for name, module in list(sys.modules.items()):
        if name.startswith("noisytrain.") and getattr(module, original.__name__, None) is original:
            monkeypatch.setattr(module, original.__name__, wrapper)


def _tiny_run(**kwargs):
    """Two epochs on 3x20 blobs at 40% noise: one warmup epoch, one SSL epoch."""
    from noisytrain import experiment
    from noisytrain.data import AugmentationSpec, inject_symmetric_noise, make_gaussian_blobs
    from noisytrain.training import Hyperparams

    train = inject_symmetric_noise(make_gaussian_blobs(3, 20, 4, 8.0, seed=1), 0.4, seed=2)
    test = make_gaussian_blobs(3, 5, 4, 8.0, seed=3)
    experiment.run(train, test, Hyperparams(seed=1, batch_size=16, warmup_epochs=1,
                                            total_epochs=2),
                   hidden=8, embed_dim=4, aug=AugmentationSpec(), **kwargs)


@pytest.mark.parametrize("module,name", sorted(_spans()))
def test_traced_function_exists(module, name):
    assert callable(_function(module, name))


# functions bench/child.py and bench/tracer.py wrap outside SPANS
@pytest.mark.parametrize("module,name", [
    ("model", "forward_logits"), ("model", "forward_softmax"),
    ("kernel", "matmul"), ("experiment", "warmup_train"),
])
def test_hooked_function_exists(module, name):
    assert callable(_function(module, name))


def test_matrix_init_is_hookable():
    from noisytrain.kernel import Matrix
    assert "__init__" in vars(Matrix)


# (module, function, position, name) of every argument the tracer reads
@pytest.mark.parametrize("module,name,pos,arg", [
    ("kernel", "backward", 0, "tape"), ("kernel", "matmul", 0, "a"),
    ("kernel", "matmul", 1, "b"), ("model", "forward_softmax", 1, "x"),
    ("model", "forward_logits", 2, "tape"),
    ("selection", "export_selection_csv", 3, "path"),
    ("runner", "write_metrics_csv", 1, "path"), ("runner", "_write_json", 1, "path"),
])
def test_traced_argument_positions(module, name, pos, arg):
    assert list(inspect.signature(_function(module, name)).parameters)[pos] == arg


def test_setup_timer_hook_is_reached():
    # child.py replaces experiment.warmup_train; run() must look it up at call time
    from noisytrain import experiment
    assert "warmup_train" in experiment.run.__code__.co_names


def test_counted_attributes_exist():
    from noisytrain.kernel import GradientTape
    from noisytrain.training import HalfEpochRecord
    assert isinstance(GradientTape().num_records, int)
    assert "degenerate" in HalfEpochRecord.__dataclass_fields__


def test_an_ssl_run_calls_every_spanned_training_function(monkeypatch):
    # a span whose function is renamed away, or no longer called, would go dark
    # while test_traced_function_exists still passes
    called = set()

    def counting(name, fn):
        def call(*args, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)
        return call
    names = sorted(name for module, name in _spans() if module == "training")
    for name in names:
        fn = _function("training", name)
        _rebind(monkeypatch, fn, counting(name, fn))
    noisy = []
    _tiny_run(on_epoch=lambda row, halves, train, test: noisy.extend(
        len(h.selection.noisy_indices) for h in halves))
    assert noisy and all(noisy)   # every half had noisy rows, so every loss term ran
    assert {"mixup", "mixmatch_assemble", "loss_contrastive"} <= set(names)
    assert sorted(called) == names


def test_hooked_calls_carry_what_the_tracer_reads(monkeypatch):
    # the tracer adds forward_softmax's ``x.rows`` to model.eval_rows and,
    # after each backward, the tape's ``num_records`` to kernel.tape_records;
    # like the tracer, wrap the functions in every module that holds them
    from noisytrain import kernel, model

    rows, records = [], []
    forward_softmax, backward = model.forward_softmax, kernel.backward

    def counting_forward_softmax(net, x):
        rows.append(x.rows)
        return forward_softmax(net, x)

    def counting_backward(tape, loss):
        grads = backward(tape, loss)
        records.append(tape.num_records)
        return grads
    _rebind(monkeypatch, forward_softmax, counting_forward_softmax)
    _rebind(monkeypatch, backward, counting_backward)
    _tiny_run()
    assert rows and all(type(n) is int and n > 0 for n in rows)
    assert {60, 15} <= set(rows)   # the run's train- and test-set evaluations
    assert len(rows) > 6           # and the refinement and guessing passes of the halves
    assert records and all(type(n) is int and n > 0 for n in records)


def test_one_backward_per_network_step(monkeypatch):
    # the tracer counts steps by calls to `kernel.backward`: warmup_iterations
    # must be nets x batches x warmup epochs, and each SSL iteration adds one;
    # its `kernel.sgd` span wraps `sgd_step`, which each step calls once
    from noisytrain import experiment, training
    from noisytrain.data import AugmentationSpec, inject_symmetric_noise, make_gaussian_blobs
    from noisytrain.training import Hyperparams

    train = inject_symmetric_noise(make_gaussian_blobs(3, 30, 4, 8.0, seed=1), 0.4, seed=2)
    test = make_gaussian_blobs(3, 10, 4, 8.0, seed=3)
    hp = Hyperparams(seed=1, batch_size=16, warmup_epochs=2, total_epochs=4)
    calls = {"warmup": 0, "ssl": 0}
    sgd_calls = {"warmup": 0, "ssl": 0}
    phase = ["ssl"]
    backward, sgd_step = training.backward, training.sgd_step
    warmup_train = experiment.warmup_train

    def counting_backward(tape, loss):
        calls[phase[0]] += 1
        return backward(tape, loss)

    def counting_sgd_step(*args, **kwargs):
        sgd_calls[phase[0]] += 1
        return sgd_step(*args, **kwargs)

    def warmup(*args, **kwargs):
        phase[0] = "warmup"
        try:
            return warmup_train(*args, **kwargs)
        finally:
            phase[0] = "ssl"
    monkeypatch.setattr(training, "backward", counting_backward)
    monkeypatch.setattr(training, "sgd_step", counting_sgd_step)
    monkeypatch.setattr(experiment, "warmup_train", warmup)
    halves = []
    experiment.run(train, test, hp, hidden=16, embed_dim=4, aug=AugmentationSpec(),
                   on_epoch=lambda row, records, train, test: halves.extend(records))

    def batches(indices):
        return -(-len(indices) // hp.batch_size)

    def iterations(half):   # zip stops at the shorter list; an empty noisy one is skipped
        clean, noisy = batches(half.selection.clean_indices), batches(half.selection.noisy_indices)
        return min(clean, noisy) if noisy else clean
    assert calls["warmup"] == 2 * batches(train.given_labels) * hp.warmup_epochs == 24
    assert len(halves) == 2 * (hp.total_epochs - hp.warmup_epochs)
    assert calls["ssl"] == sum(iterations(h) for h in halves) > 0
    assert sgd_calls == calls
