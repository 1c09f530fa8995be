"""`experiment.run` continued from a finished run's state.

Every random draw is keyed by (seed, tag, epoch, net), and the state a
run carries between epochs is its twin networks and their optimizer
states, so a run continued with ``start=`` must match an uninterrupted
run to the byte.
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
    assert continued.rows == whole.rows
    assert checkpoint_bytes(continued, tmp_path / "a.bin") == \
        checkpoint_bytes(whole, tmp_path / "b.bin")
    for got, want in zip(continued.opts, whole.opts):
        assert got.velocity.keys() == want.velocity.keys()
        assert all((got.velocity[k] == want.velocity[k]).all() for k in got.velocity)
