"""`experiment.run` continued from a finished run's state.

Every random draw is keyed by (seed, tag, epoch, net), and the state a
run carries between epochs is its twin networks, each with its parameters
and its SGD velocity row, so a run continued with ``start=`` must match
an uninterrupted run to the byte.
"""

import dataclasses

import pytest

from noisytrain.data import AugmentationSpec, inject_symmetric_noise, make_gaussian_blobs
from noisytrain.experiment import run
from noisytrain.model import save_checkpoint
from noisytrain.training import AblationFlags, Hyperparams

HP = Hyperparams(warmup_epochs=2, total_epochs=6, batch_size=16, seed=3)


def go(hp, start=None, flags=None):
    train = inject_symmetric_noise(make_gaussian_blobs(3, 20, 4, 6.0, seed=3), 0.4, seed=3)
    test = make_gaussian_blobs(3, 10, 4, 6.0, seed=4)
    return run(train, test, hp, hidden=16, embed_dim=4, aug=AugmentationSpec(),
               flags=flags, start=start)


def checkpoint_bytes(result, path):
    save_checkpoint(result.twins, str(path))
    return path.read_bytes()


@pytest.mark.parametrize("stop", [HP.warmup_epochs, HP.warmup_epochs + 2, HP.total_epochs])
@pytest.mark.parametrize("flags", [None, AblationFlags(ensemble=False)])
def test_continued_run_equals_uninterrupted(tmp_path, stop, flags):
    whole = go(HP, flags=flags)
    part = go(dataclasses.replace(HP, total_epochs=stop), flags=flags)
    assert len(part.rows) == stop
    rows_before = list(part.rows)
    continued = go(HP, start=part, flags=flags)
    assert part.rows == rows_before   # the start's rows are not extended
    assert_same_run(continued, whole, tmp_path)


def test_run_continued_from_mid_warmup_equals_uninterrupted(tmp_path):
    # each warmup epoch steps theta, phi and their prefix of the velocity row
    hp = dataclasses.replace(HP, warmup_epochs=10, total_epochs=11)
    whole = go(hp)
    part = go(dataclasses.replace(hp, warmup_epochs=3, total_epochs=3))
    assert [r.phase for r in part.rows] == ["warmup"] * 3
    continued = go(hp, start=part)
    assert [r.phase for r in continued.rows] == ["warmup"] * 10 + ["ssl"]
    assert_same_run(continued, whole, tmp_path)


def assert_same_run(continued, whole, tmp_path):
    assert continued.rows == whole.rows
    assert checkpoint_bytes(continued, tmp_path / "a.bin") == \
        checkpoint_bytes(whole, tmp_path / "b.bin")
    for got, want in ((continued.twins.net1, whole.twins.net1),
                      (continued.twins.net2, whole.twins.net2)):
        assert got.velocity.shape == want.velocity.shape
        assert (got.velocity == want.velocity).all()
