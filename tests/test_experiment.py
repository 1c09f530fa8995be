"""`experiment.run` continued from a finished run's state.

Every random draw is keyed by (seed, tag, epoch, net), and the state a
run carries between epochs is its twin networks, each with its parameters
and its SGD velocity row, so a run continued with ``start=`` must match
an uninterrupted run to the byte.
"""

import dataclasses
import json
import struct

import numpy as np
import pytest

from noisytrain import experiment, selection
from noisytrain.data import AugmentationSpec, inject_symmetric_noise, make_gaussian_blobs
from noisytrain.experiment import run
from noisytrain.metrics import accuracy
from noisytrain.model import ensemble_softmax, layout, load_checkpoint, save_checkpoint
from noisytrain.training import AblationFlags, Hyperparams

HP = Hyperparams(warmup_epochs=2, total_epochs=6, batch_size=16, seed=3)


def datasets(per_class=20):
    train = inject_symmetric_noise(make_gaussian_blobs(3, per_class, 4, 6.0, seed=3), 0.4, seed=3)
    return train, make_gaussian_blobs(3, 10, 4, 6.0, seed=4)


def go(hp, start=None, flags=None, on_epoch=None, per_class=20, hidden=16, embed_dim=4):
    train, test = datasets(per_class)
    return run(train, test, hp, hidden=hidden, embed_dim=embed_dim, aug=AugmentationSpec(),
               flags=flags, on_epoch=on_epoch, start=start)


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


WARM = HP.warmup_epochs   # a start of the warmup rows alone


@pytest.mark.parametrize("stop,change,message", [
    (WARM, dict(hidden=32, embed_dim=8), r"^start: arch Arch\(.*hidden=16.* is not this run's "
                                         r"Arch\(.*hidden=32"),
    (WARM, dict(hp=dataclasses.replace(HP, seed=9)), r"^start: network seeds \[7, 8\] are not "
                                                     r"seed 9's \[19, 20\]$"),
    (WARM, dict(hp=dataclasses.replace(HP, total_epochs=1, warmup_epochs=1)),
     r"^start: 2 rows, more than total_epochs 1$"),
    (WARM, dict(hp=dataclasses.replace(HP, warmup_epochs=1)),
     r"^start: row 1 is warmup, but warmup_epochs 1 makes it ssl$"),
    (WARM + 1, dict(hp=dataclasses.replace(HP, warmup_epochs=3)),
     r"^start: row 2 is ssl, but warmup_epochs 3 makes it warmup$"),
], ids=["arch", "seed", "rows", "warmup-row", "ssl-row"])
def test_stale_start_refused_before_any_epoch(stop, change, message):
    part = go(dataclasses.replace(HP, total_epochs=stop))
    before = [net.velocity.copy() for net in (part.twins.net1, part.twins.net2)]
    with pytest.raises(ValueError, match=message):
        go(**{"hp": HP, **change}, start=part)
    # an SSL step would have updated them
    assert [net.velocity.tolist() for net in (part.twins.net1, part.twins.net2)] == \
        [v.tolist() for v in before]


def test_empty_selection_makes_no_step(tmp_path, monkeypatch):
    """With tau just above 1 and d_mu near 0 the cutoff lies just above d_min,
    so R is 1/90 and every class's quota rounds to 0: each SSL half is
    flagged ``empty_clean`` and the networks end as warmup left them."""
    monkeypatch.setattr(selection, "TAU", 1.000001)
    monkeypatch.setattr(selection, "D_MU", 1e-9)
    halves = []
    whole = go(HP, per_class=30,
               on_epoch=lambda row, records, train, test: halves.extend(records))
    warm = go(dataclasses.replace(HP, total_epochs=HP.warmup_epochs), per_class=30)
    assert len(halves) == 2 * (HP.total_epochs - HP.warmup_epochs)
    assert all(h.degenerate == "empty_clean" and h.selection.filter_rate == 1 / 90 and
               len(h.selection.clean_indices) == 0 for h in halves)
    assert all(h.losses == dict.fromkeys(("lx", "lu", "lreg", "lc"), 0.0) for h in halves)
    assert checkpoint_bytes(whole, tmp_path / "a.bin") == checkpoint_bytes(warm, tmp_path / "b.bin")
    for got, want in ((whole.twins.net1, warm.twins.net1), (whole.twins.net2, warm.twins.net2)):
        assert got.velocity.tobytes() == want.velocity.tobytes()


def assert_same_run(continued, whole, tmp_path):
    assert continued.rows == whole.rows
    assert checkpoint_bytes(continued, tmp_path / "a.bin") == \
        checkpoint_bytes(whole, tmp_path / "b.bin")
    for got, want in ((continued.twins.net1, whole.twins.net1),
                      (continued.twins.net2, whole.twins.net2)):
        assert got.velocity.shape == want.velocity.shape
        assert (got.velocity == want.velocity).all()


def test_checkpoint_of_a_run_holds_its_packed_rows(tmp_path):
    """After a run every parameter is a read-only view of its network's packed
    row, in float32.  The checkpoint is the magic, the header and then the two
    rows in ``layout`` order, and loading and saving it again gives the same bytes."""
    twins = go(dataclasses.replace(HP, total_epochs=HP.warmup_epochs + 1)).twins
    nets, arch = (twins.net1, twins.net2), twins.net1.arch
    assert not any(m.data.flags.writeable for net in nets for m in net.params.values())
    path = tmp_path / "a.bin"
    save_checkpoint(twins, str(path))
    raw = path.read_bytes()
    (header_len,) = struct.unpack_from("<I", raw, 8)
    assert raw[:8] == b"TWINNET1"
    assert json.loads(raw[12:12 + header_len]) == {
        "version": 3, "dtype": "<f4", "arch": dataclasses.asdict(arch),
        "seeds": [net.seed for net in nets]}
    rows = [np.concatenate([net.params[name].data.ravel() for name, _, _ in layout(arch)])
            for net in nets]
    assert all(row.dtype == np.float32 for row in rows)
    assert raw[12 + header_len:] == b"".join(row.astype("<f4").tobytes() for row in rows)
    save_checkpoint(load_checkpoint(str(path)), str(tmp_path / "b.bin"))
    assert (tmp_path / "b.bin").read_bytes() == raw


def test_each_ssl_epoch_selects_then_trains_each_half(monkeypatch):
    """Per SSL epoch: select(1), half(1), select(2), half(2); each half trains
    on the very selection made for it, and the row reports the first one."""
    calls = []
    select, half = experiment.select_for_network, experiment.train_half_epoch

    def logged_select(*args):   # selection takes predictions, not a network index
        out = select(*args)
        calls.append(("select", None, out))
        return out

    def logged_half(twins, net_index, ds, hp, aug, flags, epoch, report, sel):
        out = half(twins, net_index, ds, hp, aug, flags, epoch, report, sel)
        calls.append(("half", net_index, (report, sel), out))
        return out
    monkeypatch.setattr(experiment, "select_for_network", logged_select)
    monkeypatch.setattr(experiment, "train_half_epoch", logged_half)
    seen = []
    result = go(HP, on_epoch=lambda row, halves, train, test: seen.append((row.epoch, halves)))

    ssl_epochs = range(HP.warmup_epochs, HP.total_epochs)
    assert [epoch for epoch, _ in seen] == list(range(HP.total_epochs))
    assert all(halves == [] for _, halves in seen[:HP.warmup_epochs])   # warmup has no halves
    seen = seen[HP.warmup_epochs:]
    assert len(calls) == 4 * len(ssl_epochs)
    for i, (epoch, halves) in enumerate(seen):
        s1, h1, s2, h2 = calls[4 * i:4 * i + 4]
        assert [c[:2] for c in (s1, h1, s2, h2)] == \
            [("select", None), ("half", 1), ("select", None), ("half", 2)]
        for (_, _, (report, sel)), (_, _, given, record) in ((s1, h1), (s2, h2)):
            assert given[0] is report and given[1] is sel
            assert record.report is report and record.selection is sel
        assert len(halves) == 2 and halves[0] is h1[3] and halves[1] is h2[3]
        row, sel = result.rows[epoch], s1[2][1]
        assert (row.filter_rate, row.d_cutoff) == (sel.filter_rate, sel.d_cutoff)
        assert row.class_counts == sel.class_counts.tolist()


def states(train, test):
    """The matrices of a train and a test prediction state, in a fixed order."""
    return [m for probs, ens in (train, test) for m in (*probs, ens)]


def test_observer_sees_every_epoch_with_its_row_and_predictions():
    """``on_epoch`` fires once per epoch, in order and warmup included, with the
    row just logged, no halves in warmup and one per network in SSL, and the
    train- and test-set predictions that the row's accuracies were read from."""
    train_ds, test_ds = datasets()
    calls = []
    result = go(HP, on_epoch=lambda *args: calls.append(args))
    assert len(calls) == HP.total_epochs
    assert all(row is logged for (row, *_), logged in zip(calls, result.rows))
    for row, halves, train, test in calls:
        ssl = row.epoch >= HP.warmup_epochs
        assert [h.net_index for h in halves] == ([1, 2] if ssl else [])
        for (probs, ens), ds in ((train, train_ds), (test, test_ds)):
            assert len(probs) == 2 and all(m.shape == (len(ds.true_labels), 3)
                                           for m in (*probs, ens))
            assert ens.tobytes() == ensemble_softmax(*probs).tobytes()
        assert row.train_acc_given == accuracy(train[1], train_ds.given_labels)
        assert row.test_acc == accuracy(test[1], test_ds.true_labels)

    # a continuation's observer starts at the continuation's first epoch
    seen = []
    go(HP, start=go(dataclasses.replace(HP, total_epochs=3)),
       on_epoch=lambda row, *_: seen.append(row.epoch))
    assert seen == list(range(3, HP.total_epochs))


def test_observer_reads_per_class_accuracy_without_another_evaluation(monkeypatch):
    """Warmup-end per-class test accuracy is read from the observer's test
    ensemble, and the run evaluates the same networks on the same rows with
    the observer as without it."""
    _, test_ds = datasets()
    evaluations = []
    forward = experiment.forward_softmax

    def logged_forward(net, x):
        evaluations.append((net.seed, x.data.tobytes()))
        return forward(net, x)
    monkeypatch.setattr(experiment, "forward_softmax", logged_forward)
    go(HP)
    plain, evaluations[:] = list(evaluations), []
    warm_end = {}

    def observe(row, halves, train, test):
        if row.epoch == HP.warmup_epochs - 1:
            predicted = test[1].argmax(axis=1)
            warm_end["ens"] = test[1].tobytes()
            warm_end["per_class"] = [float((predicted[test_ds.true_labels == c] == c).mean())
                                     for c in range(3)]
            warm_end["acc"] = row.test_acc
    go(HP, on_epoch=observe)
    assert evaluations == plain

    # the same ensemble a separate evaluation of the warmed-up networks gives
    warm = go(dataclasses.replace(HP, total_epochs=HP.warmup_epochs)).twins
    again = ensemble_softmax(forward(warm.net1, test_ds.features),
                             forward(warm.net2, test_ds.features))
    assert warm_end["ens"] == again.tobytes()
    # 10 test samples per class, so the overall accuracy is the per-class mean
    assert np.mean(warm_end["per_class"]) == pytest.approx(warm_end["acc"], abs=1e-12)


def test_observed_predictions_are_read_only_and_kept_states_never_change():
    """Writing into an observed prediction raises ``ValueError``, and a state
    kept from an epoch holds the same bytes when the run has ended."""
    kept = []

    def observe(row, halves, train, test):
        for m in states(train, test):
            assert type(m) is np.ndarray
            with pytest.raises(ValueError, match="read-only"):
                m[0, 0] = 0.5
            with pytest.raises(ValueError, match="read-only"):
                m *= 2.0
        kept.append((train, test, [m.tobytes() for m in states(train, test)]))
    go(HP, on_epoch=observe)
    assert len(kept) == HP.total_epochs
    for train, test, raw in kept:
        assert [m.tobytes() for m in states(train, test)] == raw
