import json
import warnings

import numpy as np
import pytest

from conftest import (finite_difference_grad, max_relative_error, serial_sgd_steps, ssl_epoch,
                      warmup_epochs)
from noisytrain import training
from noisytrain.cli import main
from noisytrain.config import config_from_dict
from noisytrain.data import (AugmentationSpec, batch_iterator, inject_symmetric_noise,
                             make_gaussian_blobs, strong_augment, weak_augment)
from noisytrain.kernel import GradientTape, Matrix, backward, record, wrap
from noisytrain.model import (ALL_GROUPS, PHI, PSI, THETA, Arch, TwinNetworks, forward_logits,
                              forward_softmax, init_network, init_twins, layout)
from noisytrain.runner import cmd_run
from noisytrain.selection import CutoffParams, DivergenceReport, uniform_select
from noisytrain.training import (AblationFlags, DegenerateBatchError,
                                 Hyperparams, TrainingDivergedError,
                                 blend_targets, decayed_lr,
                                 guess_pseudo_labels, loss_contrastive,
                                 loss_lu, loss_lx, loss_reg, mixmatch_assemble,
                                 mixup, mixup_with_lambda, one_hot,
                                 refine_labels, refinement_weights,
                                 select_for_network, sharpen, total_loss,
                                 train_half_epoch, warmup_train)

AUG = AugmentationSpec()
CUTOFF = CutoffParams()
FLAGS = AblationFlags()


def snapshot(net):
    return {name: m.data.copy() for name, m in net.params.items()}


def params_equal(a, b):
    return all(np.array_equal(a[k], b[k]) for k in a)


class TestSharpen:
    def test_uniform_fixed_point(self):
        out = sharpen(Matrix([[0.25, 0.25, 0.25, 0.25]]), 0.5)
        assert np.allclose(out.data, 0.25, atol=1e-12)

    def test_worked_value(self):
        out = sharpen(Matrix([[0.8, 0.2]]), 0.5)
        assert np.allclose(out.data, [[0.941176, 0.058824]], atol=1e-6)

    def test_temperature_one_identity(self):
        p = Matrix([[0.3, 0.6, 0.1]])
        assert np.allclose(sharpen(p, 1.0).data, p.data, atol=1e-12)

    def test_one_hot_unchanged(self):
        p = Matrix([[0.0, 1.0, 0.0]])
        assert np.array_equal(sharpen(p, 0.5).data, p.data)

    @pytest.mark.parametrize("T", [float("nan"), True, 0.0, -1.0, float("inf"), "0.5"])
    def test_bad_temperature_is_named(self, T):
        with pytest.raises(ValueError, match="^T: "):
            sharpen(Matrix([[0.8, 0.2]]), T)


class TestRefinementWeights:
    def test_threshold_behavior(self):
        d = np.array([0.0, 0.49, 0.5, 0.8, 1.0])
        w = refinement_weights(d, d_omega=0.5)
        assert w.tolist() == [1.0, 1.0, 0.5, pytest.approx(0.2), 0.0]

    def test_range(self, rng):
        w = refinement_weights(rng.uniform(0, 1, 100), d_omega=0.5)
        assert np.all((w >= 0.0) & (w <= 1.0))


class TestRefineLabels:
    def test_blend_worked_value(self):
        out = blend_targets(Matrix([[1.0, 0.0]]), Matrix([[0.6, 0.4]]), np.array([0.3]))
        assert np.allclose(out.data, [[0.72, 0.28]], atol=1e-12)

    def test_weight_one_keeps_one_hot(self):
        net = init_network(Arch(3, 8, 2, 2), seed=1)
        x = Matrix(np.random.default_rng(0).normal(size=(4, 3)))
        y = one_hot([0, 1, 0, 1], 2)
        out = refine_labels(net, x, x, y, np.ones(4), T=0.5)
        assert np.allclose(out.data, y.data, atol=1e-12)

    def test_weight_zero_gives_model_average(self):
        net = init_network(Arch(3, 8, 2, 2), seed=1)
        rng = np.random.default_rng(0)
        x1 = Matrix(rng.normal(size=(4, 3)))
        x2 = Matrix(rng.normal(size=(4, 3)))
        y = one_hot([0, 1, 0, 1], 2)
        out = refine_labels(net, x1, x2, y, np.zeros(4), T=1.0)
        expected = (forward_softmax(net, x1).data + forward_softmax(net, x2).data) / 2
        assert np.allclose(out.data, expected, atol=1e-9)


class TestGuessPseudoLabels:
    def test_identical_twins_same_view_equals_single_forward(self):
        net = init_network(Arch(3, 8, 2, 2), seed=1)
        twins = TwinNetworks(net, net)
        x = Matrix(np.random.default_rng(0).normal(size=(4, 3)))
        q = guess_pseudo_labels(twins, x, x, T=1.0)
        assert np.allclose(q.data, forward_softmax(net, x).data, atol=1e-9)

    def test_rows_sum_to_one(self):
        twins = init_twins(Arch(3, 8, 4, 2), seed=5)
        rng = np.random.default_rng(1)
        q = guess_pseudo_labels(twins, Matrix(rng.normal(size=(6, 3))),
                                Matrix(rng.normal(size=(6, 3))), T=0.5)
        assert np.allclose(q.data.sum(axis=1), 1.0, atol=1e-6)

    def test_average_of_four_forwards(self):
        twins = init_twins(Arch(3, 8, 4, 2), seed=5)
        rng = np.random.default_rng(1)
        u1 = Matrix(rng.normal(size=(6, 3)))
        u2 = Matrix(rng.normal(size=(6, 3)))
        q = guess_pseudo_labels(twins, u1, u2, T=1.0)
        manual = (forward_softmax(twins.net1, u1).data + forward_softmax(twins.net1, u2).data
                  + forward_softmax(twins.net2, u1).data + forward_softmax(twins.net2, u2).data) / 4
        manual = manual / manual.sum(axis=1, keepdims=True)
        assert np.allclose(q.data, manual, atol=1e-9)

    def test_no_tape_interaction(self):
        twins = init_twins(Arch(3, 8, 2, 2), seed=5)
        tape = GradientTape()
        for p in twins.net1.params.values():
            tape.watch(p)
        x = Matrix(np.random.default_rng(2).normal(size=(4, 3)))
        guess_pseudo_labels(twins, x, x, T=0.5)
        assert tape.num_records == 0


class TestMixup:
    def test_lambda_one_returns_first(self):
        x1, t1 = Matrix([[1.0, 2.0]]), Matrix([[1.0, 0.0]])
        x2, t2 = Matrix([[5.0, 6.0]]), Matrix([[0.0, 1.0]])
        out = mixup_with_lambda(x1, t1, x2, t2, np.array([1.0]))
        assert np.array_equal(out.inputs.data, x1.data)
        assert np.array_equal(out.targets.data, t1.data)

    def test_worked_target_mix(self):
        out = mixup_with_lambda(Matrix([[0.0]]), Matrix([[1.0, 0.0]]),
                                Matrix([[1.0]]), Matrix([[0.0, 1.0]]), np.array([0.7]))
        assert np.allclose(out.targets.data, [[0.7, 0.3]], atol=1e-12)

    def test_targets_stay_distributions(self, rng):
        t1 = Matrix(rng.dirichlet(np.ones(3), size=8))
        t2 = Matrix(rng.dirichlet(np.ones(3), size=8))
        x = Matrix(rng.normal(size=(8, 2)))
        out = mixup(x, t1, x, t2, alpha=4.0, rng=np.random.default_rng(3))
        assert np.allclose(out.targets.data.sum(axis=1), 1.0, atol=1e-6)

    def test_lambda_prime_at_least_half(self):
        x = Matrix(np.zeros((200, 2)))
        t = Matrix(np.tile([1.0, 0.0], (200, 1)))
        out = mixup(x, t, x, t, alpha=4.0, rng=np.random.default_rng(4))
        assert np.all((out.lambda_prime >= 0.5) & (out.lambda_prime <= 1.0))


class TestMixmatchAssemble:
    def _entries(self, rng, n, dims=3, classes=2):
        return (Matrix(rng.normal(size=(n, dims))),
                Matrix(rng.dirichlet(np.ones(classes), size=n)))

    def test_sizes(self, rng):
        xi, xt = self._entries(rng, 4)
        ui, ut = self._entries(rng, 6)
        mx, mu = mixmatch_assemble(xi, xt, ui, ut, 4.0, np.random.default_rng(0))
        assert mx.inputs.shape == (4, 3) and mx.targets.shape == (4, 2)
        assert mu.inputs.shape == (6, 3) and mu.targets.shape == (6, 2)

    def test_each_row_is_convex_combo_with_union(self, rng):
        xi, xt = self._entries(rng, 4)
        ui, ut = self._entries(rng, 4)
        mx, _ = mixmatch_assemble(xi, xt, ui, ut, 4.0, np.random.default_rng(1))
        union = np.vstack([xi.data, ui.data])
        for i in range(4):
            lam = mx.lambda_prime[i]
            if lam == 1.0:
                continue
            partner = (mx.inputs.data[i] - lam * xi.data[i]) / (1 - lam)
            dists = np.abs(union - partner).max(axis=1)
            assert dists.min() < 1e-8

    def test_deterministic_given_seed(self, rng):
        xi, xt = self._entries(rng, 4)
        ui, ut = self._entries(rng, 4)
        a = mixmatch_assemble(xi, xt, ui, ut, 4.0, np.random.default_rng(7))
        b = mixmatch_assemble(xi, xt, ui, ut, 4.0, np.random.default_rng(7))
        assert a[0].inputs.data.tobytes() == b[0].inputs.data.tobytes()
        assert a[1].targets.data.tobytes() == b[1].targets.data.tobytes()

    def test_empty_labeled_side_raises(self, rng):
        ui, ut = self._entries(rng, 4)
        empty_i, empty_t = Matrix(np.zeros((0, 3))), Matrix(np.zeros((0, 2)))
        with pytest.raises(DegenerateBatchError):
            mixmatch_assemble(empty_i, empty_t, ui, ut, 4.0, np.random.default_rng(0))

    def test_empty_unlabeled_side_mixes_labeled_among_themselves(self, rng):
        xi, xt = self._entries(rng, 5)
        empty_i, empty_t = Matrix(np.zeros((0, 3))), Matrix(np.zeros((0, 2)))
        mx, mu = mixmatch_assemble(xi, xt, empty_i, empty_t, 4.0, np.random.default_rng(9))
        ref_rng = np.random.default_rng(9)
        perm = ref_rng.permutation(5)
        ref = mixup(xi, xt, Matrix(xi.data[perm]), Matrix(xt.data[perm]), 4.0, ref_rng)
        assert mx.inputs.data.tobytes() == ref.inputs.data.tobytes()
        assert mx.targets.data.tobytes() == ref.targets.data.tobytes()
        assert mx.lambda_prime.tobytes() == ref.lambda_prime.tobytes()
        assert mu.inputs.shape == (0, 3) and mu.targets.shape == (0, 2)


class TestLossValues:
    def test_lx_perfect_one_hot_is_zero(self):
        logits = Matrix([[100.0, 0.0, 0.0]])
        target = Matrix([[1.0, 0.0, 0.0]])
        assert loss_lx(logits, target).item() == pytest.approx(0.0, abs=1e-12)

    def test_lx_uniform_entropy(self):
        val = loss_lx(Matrix([[0.0, 0.0]]), Matrix([[0.5, 0.5]])).item()
        assert val == pytest.approx(np.log(2), abs=1e-12)

    def test_lx_nonnegative_for_one_hot(self, rng):
        for _ in range(20):
            logits = Matrix(rng.normal(size=(5, 4)))
            targets = one_hot(rng.integers(0, 4, 5), 4)
            assert loss_lx(logits, targets).item() >= 0.0

    def test_lu_perfect_match_zero(self):
        logits = Matrix([[0.0, 0.0]])
        assert loss_lu(logits, Matrix([[0.5, 0.5]])).item() == pytest.approx(0.0, abs=1e-12)

    def test_lu_worked_value(self):
        logits = Matrix([[np.log(0.6), np.log(0.4)]])
        assert loss_lu(logits, Matrix([[1.0, 0.0]])).item() == pytest.approx(0.32, abs=1e-9)

    def test_lu_bounded_by_two(self, rng):
        for _ in range(20):
            logits = Matrix(rng.normal(size=(6, 3), scale=5))
            targets = Matrix(rng.dirichlet(np.ones(3), size=6))
            assert loss_lu(logits, targets).item() <= 2.0

    def test_reg_uniform_mean_zero(self):
        logits = Matrix([[1.0, 2.0], [2.0, 1.0]])  # softmax rows mirror each other
        assert loss_reg(logits, 2).item() == pytest.approx(0.0, abs=1e-12)

    def test_reg_worked_value(self):
        logits = Matrix([[np.log(0.9), np.log(0.1)]])
        assert loss_reg(logits, 2).item() == pytest.approx(0.510826, abs=1e-6)

    def test_reg_nonnegative(self, rng):
        for _ in range(20):
            logits = Matrix(rng.normal(size=(5, 4), scale=3))
            assert loss_reg(logits, 4).item() >= -1e-12

    def test_contrastive_single_pair_exactly_zero(self):
        z = Matrix([[1.0, 0.0], [0.0, 1.0]])
        assert loss_contrastive(z, kappa=0.05).item() == 0.0

    def test_contrastive_identical_embeddings(self):
        z = Matrix(np.tile([1.0, 0.0], (4, 1)))
        assert loss_contrastive(z, kappa=0.05).item() == pytest.approx(np.log(3), abs=1e-9)

    def test_contrastive_orthogonal_pairs_near_zero(self):
        z = Matrix([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        assert loss_contrastive(z, kappa=0.05).item() < 1e-8

    def test_contrastive_swap_invariance(self, rng):
        z = rng.normal(size=(8, 4))
        z = z / np.linalg.norm(z, axis=1, keepdims=True)
        swapped = z.copy()
        for b in range(4):
            swapped[[2 * b, 2 * b + 1]] = swapped[[2 * b + 1, 2 * b]]
        a = loss_contrastive(Matrix(z), 0.05).item()
        b = loss_contrastive(Matrix(swapped), 0.05).item()
        assert a == pytest.approx(b, abs=1e-12)

    def test_contrastive_empty_batch_zero(self):
        assert loss_contrastive(Matrix(np.zeros((0, 3))), 0.05).item() == 0.0

    def test_total_loss_combinations(self):
        hp = Hyperparams()
        zero = Matrix([[0.0]])
        assert total_loss(zero, zero, zero, zero, hp).item() == 0.0
        lx = Matrix([[0.5]])
        hp0 = Hyperparams(lambda_u=0.0, lambda_c=0.0, lambda_r=0.0)
        assert total_loss(lx, Matrix([[9.0]]), Matrix([[9.0]]), Matrix([[9.0]]), hp0).item() == 0.5
        val = total_loss(Matrix([[0.5]]), Matrix([[0.01]]), Matrix([[0.1]]),
                         Matrix([[1.0]]), Hyperparams()).item()
        assert val == pytest.approx(0.925, abs=1e-12)


class TestLossGradients:
    def _net_and_inputs(self, seed=0):
        arch = Arch(in_dim=3, hidden=4, num_classes=3, embed_dim=3)
        net = init_network(arch, seed=seed)
        rng = np.random.default_rng(seed + 100)
        x = Matrix(rng.normal(size=(4, 3)))
        targets = Matrix(rng.dirichlet(np.ones(3), size=4))
        return net, x, targets

    def test_total_loss_matches_finite_differences(self):
        from noisytrain.model import forward_projection
        net, x, targets = self._net_and_inputs()
        hp = Hyperparams()

        def forward(tape=None):
            logits = forward_logits(net, x, tape)
            lx = loss_lx(logits, targets, tape)
            lu = loss_lu(logits, targets, tape)
            lreg = loss_reg(logits, 3, tape)
            z = forward_projection(net, x, tape)
            lc = loss_contrastive(z, hp.kappa, tape)
            return total_loss(lx, lu, lreg, lc, hp, tape)

        tape = GradientTape()
        mats = [net.params[name] for name in ALL_GROUPS]
        for m in mats:
            tape.watch(m)
        grads = backward(tape, forward(tape))
        fd = finite_difference_grad(lambda: forward().item(), mats)
        for m, numeric in zip(mats, fd):
            assert max_relative_error(grads[m].data, numeric) < 1e-4


class TestWarmup:
    def _noisy_setup(self, rate=0.0):
        ds = make_gaussian_blobs(3, 40, 4, 8.0, seed=6)
        if rate > 0:
            ds = inject_symmetric_noise(ds, rate, seed=7)
        twins = init_twins(Arch(4, 32, 3, 8), seed=1)
        return ds, twins

    def test_clean_blobs_reach_high_train_accuracy(self):
        from noisytrain.metrics import accuracy
        ds, twins = self._noisy_setup(rate=0.0)
        warmup_epochs(twins, ds, Hyperparams(seed=1, batch_size=32), 10)
        assert accuracy(twins, ds.features, ds.given_labels) > 0.95

    def test_projection_head_untouched(self):
        ds, twins = self._noisy_setup(rate=0.2)
        wp_before = twins.net1.params["wp"].data.copy()
        warmup_epochs(twins, ds, Hyperparams(seed=1, batch_size=32), 2)
        assert np.array_equal(wp_before, twins.net1.params["wp"].data)

    def test_psi_velocity_stays_zero_through_warmup(self):
        # theta and phi are a prefix of the velocity row; psi's part follows
        ds, twins = self._noisy_setup(rate=0.2)
        before = [dict(net.params) for net in (twins.net1, twins.net2)]
        warmup_train(twins, ds, Hyperparams(seed=1, batch_size=32), 0)
        for net, params in zip((twins.net1, twins.net2), before):
            parts = {name: part for name, part, _ in layout(net.arch)}
            psi = net.velocity[parts["wp"].start:]
            assert psi.size == sum(net.params[n].data.size for n in PSI)
            assert not psi.any()
            assert net.velocity[parts["w1"]].any() and net.velocity[parts["bc"]].any()
            assert all(net.params[n] is params[n] for n in PSI)
            assert all(net.params[n] is not params[n] for n in THETA + PHI)

    def test_returns_one_loss_per_epoch(self):
        ds, twins = self._noisy_setup(rate=0.2)
        losses = warmup_epochs(twins, ds, Hyperparams(seed=1, batch_size=32), 3)
        assert all(isinstance(loss, float) for loss in losses)
        assert losses[0] > losses[-1]

    def _packed_and_serial(self, hp, epochs=1, net2_w1_velocity=0.0):
        """Warmup with packed steps and with the matrix-by-matrix reference
        steps, from the same start; a divergence is returned as its fields.
        Net 2's w1 velocity starts at ``net2_w1_velocity``."""
        ds = self._noisy_setup(rate=0.2)[0]
        results = []
        for steps in (training._sgd_steps, serial_sgd_steps):
            twins = init_twins(Arch(4, 32, 3, 8), seed=1)
            twins.net2.velocity[layout(twins.net2.arch)[0][1]] = net2_w1_velocity
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(training, "_sgd_steps", steps)
                try:
                    out = warmup_epochs(twins, ds, hp, epochs)
                except TrainingDivergedError as err:
                    out = (err.epoch, err.net, err.phase, err.term)
            results.append((out, twins))
        return results

    @staticmethod
    def _assert_same_state(got, want):
        """Both networks' parameters and velocity rows."""
        (_, twins), (_, ref_twins) = got, want
        for net, ref_net in ((twins.net1, ref_twins.net1), (twins.net2, ref_twins.net2)):
            assert all(np.array_equal(net.params[n].data, ref_net.params[n].data)
                       for n in ALL_GROUPS)
            assert np.array_equal(net.velocity, ref_net.velocity)

    def test_each_network_keeps_its_own_velocity(self):
        # 30 CE values an epoch: enough for their order to show in the mean
        hp = Hyperparams(seed=1, batch_size=8)
        got, want = self._packed_and_serial(hp, epochs=3)
        assert got[0] == want[0]
        self._assert_same_state(got, want)
        twins = got[1]
        assert not np.array_equal(twins.net1.velocity, twins.net2.velocity)

    def test_net_2_diverging_alone_is_named_at_its_first_non_finite_step(self):
        # a huge velocity overflows net 2's first update: lx is finite, w1 is not
        hp = Hyperparams(seed=1, batch_size=16, lr=10.0)
        got, want = self._packed_and_serial(hp, net2_w1_velocity=1e308)
        assert got[0] == want[0] == (0, 2, "warmup", "w1")
        # net 2 keeps its parameters from before the step and the velocities it updated
        self._assert_same_state(got, want)
        w1 = layout(got[1].net2.arch)[0][1]
        assert np.all(got[1].net2.velocity[w1] != 1e308)

    def test_refused_first_step_leaves_network_and_optimizer_as_they_were(self, monkeypatch):
        ds, twins = self._noisy_setup()
        before = dict(twins.net1.params)
        lx = training.loss_lx

        def infinite_lx(*args, **kwargs):
            out = lx(*args, **kwargs)
            out.data[0, 0] = np.inf
            return out
        monkeypatch.setattr(training, "loss_lx", infinite_lx)
        with pytest.raises(TrainingDivergedError, match=r"net 1 \(warmup\): lx is not finite$"):
            warmup_train(twins, ds, Hyperparams(seed=1, batch_size=32), 0)
        assert all(twins.net1.params[n] is before[n] for n in ALL_GROUPS)
        assert not twins.net1.velocity.any()

    def test_net_1_diverging_later_is_named_before_net_2(self):
        # at lr 1000 net 1's CE goes non-finite in epoch 0, before net 2, whose
        # first update would overflow, takes a step
        hp = Hyperparams(seed=1, batch_size=16, lr=1000.0)
        got, want = self._packed_and_serial(hp, net2_w1_velocity=1e308)
        assert got[0] == want[0] == (0, 1, "warmup", "lx")
        # refused before the update: net 2 never stepped, so its velocity is as it started
        self._assert_same_state(got, want)
        w1 = layout(got[1].net2.arch)[0][1]
        assert np.all(got[1].net2.velocity[w1] == 1e308)
        assert not np.delete(got[1].net2.velocity, np.arange(w1.start, w1.stop)).any()


class TestTrainEpoch:
    def _setup(self, rate=0.4, seed=3):
        ds = make_gaussian_blobs(3, 30, 4, 8.0, seed=seed)
        ds = inject_symmetric_noise(ds, rate, seed=seed + 1)
        hp = Hyperparams(seed=seed, batch_size=16, warmup_epochs=1, total_epochs=3)
        twins = init_twins(Arch(4, 16, 3, 4), seed=seed)
        warmup_train(twins, ds, hp, 0)
        return ds, hp, twins

    def test_other_network_frozen_during_half_epoch(self):
        ds, hp, twins = self._setup()
        net2_before = snapshot(twins.net2)
        net1_before = snapshot(twins.net1)
        report, sel = select_for_network(twins, 1, ds, CUTOFF, FLAGS)
        train_half_epoch(twins, 1, ds, hp, AUG, FLAGS, 1, report, sel)
        assert params_equal(net2_before, snapshot(twins.net2))
        assert not params_equal(net1_before, snapshot(twins.net1))

    def test_epoch_is_deterministic(self):
        ds, hp, twins_a = self._setup()
        _, _, twins_b = self._setup()
        ssl_epoch(twins_a, ds, hp, AUG, CUTOFF, FLAGS, epoch=1)
        ssl_epoch(twins_b, ds, hp, AUG, CUTOFF, FLAGS, epoch=1)
        assert params_equal(snapshot(twins_a.net1), snapshot(twins_b.net1))
        assert params_equal(snapshot(twins_a.net2), snapshot(twins_b.net2))

    def test_noisy_set_empty_degrades_to_clean_only(self):
        ds, hp, twins = self._setup()
        report = DivergenceReport.from_values(np.linspace(0.01, 0.6, len(ds)))
        sel = uniform_select(report, ds.given_labels, 3, 1.0, d_cutoff=0.9)
        assert len(sel.noisy_indices) == 0
        rec = train_half_epoch(twins, 1, ds, hp, AUG, FLAGS, 1, report, sel)
        assert rec.degenerate == "empty_noisy"
        assert rec.losses["lu"] == 0.0
        assert rec.losses["lc"] == 0.0
        assert rec.losses["lx"] > 0.0

    @pytest.mark.parametrize("flags", [FLAGS, AblationFlags(contrastive=False)],
                             ids=["contrastive", "no-contrastive"])
    def test_empty_noisy_half_equals_clean_mixup_reference(self, flags):
        # reference: the clean entries shuffled and mixed with MixUp, then lx and lreg only
        ds, hp, twins = self._setup()
        _, _, ref = self._setup()
        report = DivergenceReport.from_values(np.linspace(0.01, 0.6, len(ds)))
        sel = uniform_select(report, ds.given_labels, 3, 1.0, d_cutoff=0.9)
        rec = train_half_epoch(twins, 2, ds, hp, AUG, flags, 1, report, sel)
        net, targets = ref.net2, one_hot(ds.given_labels, 3).data
        weights = training.refinement_weights(report.d, hp.d_omega)

        def clean_only(tape, item):
            it, cb = item
            rng = np.random.default_rng([hp.seed, training._S_ITER, 1, 2, it])
            x = wrap(ds.features.data[cb])
            xw1, xw2, xs1, xs2 = (f(x, AUG, rng) for f in (weak_augment, weak_augment,
                                                          strong_augment, strong_augment))
            y = refine_labels(net, xw1, xw2, wrap(targets[cb]), weights[cb], hp.T)
            x_in = np.stack([xs1.data, xs2.data], axis=1).reshape(2 * len(cb), -1)
            x_t = np.repeat(y.data, 2, axis=0)
            perm = rng.permutation(len(x_in))
            mixed = mixup(wrap(x_in), wrap(x_t), wrap(x_in[perm]), wrap(x_t[perm]), hp.alpha, rng)
            logits = forward_logits(net, mixed.inputs, tape)
            lx, lreg = loss_lx(logits, mixed.targets, tape), loss_reg(logits, 3, tape)
            zero = Matrix.zeros(1, 1)
            return total_loss(lx, zero, lreg, zero, hp, tape), {"lx": lx, "lreg": lreg}

        clean = batch_iterator(sel.clean_indices, hp.batch_size, (hp.seed, training._S_CLEAN, 2), 1)
        steps = training._sgd_steps(net, hp, decayed_lr(hp, 1), ALL_GROUPS, enumerate(clean),
                                    clean_only, (1, 2, "ssl"))
        for name in ALL_GROUPS:
            assert twins.net2.params[name].data.tobytes() == net.params[name].data.tobytes()
        assert twins.net2.velocity.tobytes() == net.velocity.tobytes()
        assert rec.losses == {"lx": float(np.mean([s["lx"] for s in steps])), "lu": 0.0,
                              "lreg": float(np.mean([s["lreg"] for s in steps])), "lc": 0.0}

    def test_clean_set_empty_degrades_to_ce(self):
        ds, hp, twins = self._setup()
        report = DivergenceReport.from_values(np.linspace(0.4, 0.99, len(ds)))
        sel = uniform_select(report, ds.given_labels, 3, 0.0, d_cutoff=0.1)
        assert len(sel.clean_indices) == 0
        rec = train_half_epoch(twins, 1, ds, hp, AUG, FLAGS, 1, report, sel)
        assert rec.degenerate == "empty_clean"
        assert rec.losses["lx"] > 0.0
        assert rec.losses["lu"] == 0.0

    def test_targets_never_tracked_on_tape(self):
        ds, hp, twins = self._setup()
        tape = GradientTape()
        for p in twins.net1.params.values():
            tape.watch(p)
        x = Matrix(ds.features.data[:4])
        y = one_hot(ds.given_labels[:4], 3)
        refined = refine_labels(twins.net1, x, x, y, np.full(4, 0.5), hp.T)
        guessed = guess_pseudo_labels(twins, x, x, hp.T)
        assert tape.num_records == 0
        assert not tape.tracks(refined)
        assert not tape.tracks(guessed)

    @pytest.mark.parametrize("flags,checked", [
        (AblationFlags(), 1),                    # the ensemble's mean softmax
        (AblationFlags(ensemble=False), 0),
        (AblationFlags(contrastive=False), 1),
    ], ids=["all-on", "no-ensemble", "no-contrastive"])
    def test_step_builds_no_checked_matrices(self, monkeypatch, flags, checked):
        # the step's own arrays are wrapped, not copied and scanned; the
        # one finiteness check of training is in _sgd_steps.  A selection
        # with the ensemble on builds one checked Matrix; a half builds none.
        ds, hp, twins = self._setup()
        inits = {"select": 0, "half": 0}
        where = ["select"]
        init = Matrix.__init__

        def counting_init(self, values):
            inits[where[0]] += 1
            init(self, values)
        monkeypatch.setattr(Matrix, "__init__", counting_init)
        for net_index in (1, 2):
            where[0] = "select"
            report, sel = select_for_network(twins, net_index, ds, CUTOFF, flags)
            where[0] = "half"
            assert train_half_epoch(twins, net_index, ds, hp, AUG, flags, 1,
                                    report, sel).degenerate is None
        assert inits == {"select": 2 * checked, "half": 0}

    def test_non_finite_contrastive_term_stops_ssl_step(self, monkeypatch):
        ds, hp, twins = self._setup()
        before = snapshot(twins.net1)
        monkeypatch.setattr(training, "loss_contrastive",
                            lambda z, kappa, tape=None: wrap(np.array([[np.nan]])))
        with pytest.raises(TrainingDivergedError,
                           match=r"^training diverged at epoch 1, net 1 \(ssl\): lc is not finite$"):
            ssl_epoch(twins, ds, hp, AUG, CUTOFF, FLAGS, epoch=1)
        assert params_equal(before, snapshot(twins.net1))   # refused before the update

    def test_collapsed_projection_stops_ssl_step_at_lc(self):
        # a dead second hidden layer leaves the projection at its zero bias
        ds, hp, twins = self._setup()
        net = twins.net1
        net.params["w2"] = Matrix.zeros(*net.params["w2"].shape)
        net.params["b2"] = Matrix(np.full(net.params["b2"].shape, -1.0))
        net.params["bp"] = Matrix.zeros(*net.params["bp"].shape)
        report = DivergenceReport.from_values(np.linspace(0.01, 0.99, len(ds)))
        sel = uniform_select(report, ds.given_labels, 3, 0.5, d_cutoff=0.5)
        assert len(sel.clean_indices) and len(sel.noisy_indices)
        before = dict(net.params)
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # the zero norm must not warn either
            with pytest.raises(TrainingDivergedError) as info:
                train_half_epoch(twins, 1, ds, hp, AUG, FLAGS, 1, report, sel)
        err = info.value
        assert (err.epoch, err.net, err.phase, err.term) == (1, 1, "ssl", "lc")
        assert all(net.params[n] is before[n] for n in ALL_GROUPS)   # no update

    def test_non_finite_ce_stops_empty_clean_fallback(self, monkeypatch):
        ds, hp, twins = self._setup()
        report = DivergenceReport.from_values(np.linspace(0.4, 0.99, len(ds)))
        sel = uniform_select(report, ds.given_labels, 3, 0.0, d_cutoff=0.1)
        lx = training.loss_lx

        def infinite_lx(*args, **kwargs):
            out = lx(*args, **kwargs)
            out.data[0, 0] = np.inf
            return out
        monkeypatch.setattr(training, "loss_lx", infinite_lx)
        with pytest.raises(TrainingDivergedError) as info:
            train_half_epoch(twins, 2, ds, hp, AUG, FLAGS, 4, report, sel)
        err = info.value
        assert (err.epoch, err.net, err.phase, err.term) == (4, 2, "empty_clean", "lx")


def test_infinite_gradient_named_by_parameter():
    """A step whose loss terms are finite but whose update is not names the
    first non-finite parameter, also inside the packed row's psi part."""
    for names, bad, phase in ((THETA + PHI, "w2", "warmup"), (ALL_GROUPS, "w2", "ssl"),
                              (ALL_GROUPS, "wp", "ssl")):
        net = init_network(Arch(3, 8, 2, 2), seed=1)
        before = dict(net.params)

        def loss_fn(tape, item):
            # a finite loss whose only gradient, that of ``bad``, is infinite
            p = net.params[bad]
            loss = record(tape, (p,), wrap(np.array([[0.5]])),
                          lambda g, tracked: (np.full(p.shape, np.inf),))
            return loss, {"lx": loss}
        with pytest.raises(TrainingDivergedError,
                           match=rf"^training diverged at epoch 7, net 2 \({phase}\): "
                                 rf"{bad} is not finite$"):
            training._sgd_steps(net, Hyperparams(), 0.1, names, [None], loss_fn, (7, 2, phase))
        assert all(net.params[n] is before[n] for n in ALL_GROUPS)   # no parameter replaced
        # the refused step's velocities stay updated in the network's row
        assert all(np.isinf(net.velocity[part]).all() == (n == bad)
                   for n, part, _ in layout(net.arch)[:len(names)])
        assert not net.velocity[layout(net.arch)[len(names) - 1][1].stop:].any()


DESK_LR50 = {
    "dataset": {"num_classes": 4, "per_class": 250, "test_per_class": 100,
                "dims": 8, "separation": 8.0},
    "noise": {"kind": "symmetric", "rate": 0.5},
    "arch": {"hidden": 64, "embed_dim": 16},
    "hyperparams": {"warmup_epochs": 10, "total_epochs": 60, "lr": 50.0},
    "seed": 17,
}


def test_diverging_run_stops_at_first_non_finite_ce(tmp_path, monkeypatch, capsys):
    ce_values = []
    lx = training.loss_lx

    def recording_lx(*args, **kwargs):
        out = lx(*args, **kwargs)
        ce_values.append(out.item())
        return out
    monkeypatch.setattr(training, "loss_lx", recording_lx)
    path = tmp_path / "desk_lr50.json"
    path.write_text(json.dumps({**DESK_LR50, "output_dir": str(tmp_path / "out")}))
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["run", "--config", str(path)]) == 1
    assert capsys.readouterr().err.strip().endswith(
        "error: training diverged at epoch 0, net 1 (warmup): lx is not finite")
    # the run stopped at the step whose CE first went non-finite
    assert np.isfinite(ce_values[:-1]).all() and not np.isfinite(ce_values[-1])


@pytest.mark.parametrize("warmup_epochs,phase,term", [(10, "warmup", "lx"), (0, "ssl", "lreg")])
def test_diverging_run_raises_only_the_named_error(tmp_path, warmup_epochs, phase, term):
    raw = {**DESK_LR50, "output_dir": str(tmp_path / "out")}
    raw["hyperparams"] = {**raw["hyperparams"], "warmup_epochs": warmup_epochs}
    cfg = config_from_dict(raw)
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # a numpy RuntimeWarning would raise first
        with pytest.raises(TrainingDivergedError) as info:
            cmd_run(cfg)
    err = info.value
    assert (err.epoch, err.net, err.phase, err.term) == (0, 1, phase, term)


def test_collapsed_projection_reported_as_divergence(tmp_path, capsys):
    # one warmup epoch at lr 2 collapses net 1's projection in its first SSL step
    raw = {**DESK_LR50, "output_dir": str(tmp_path / "out")}
    raw["hyperparams"] = {**raw["hyperparams"], "warmup_epochs": 1, "lr": 2.0}
    path = tmp_path / "desk_collapse.json"
    path.write_text(json.dumps(raw))
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # as under python -W error
        assert main(["run", "--config", str(path)]) == 1
    assert capsys.readouterr().err == (
        "error: training diverged at epoch 1, net 1 (ssl): lc is not finite\n")


class TestHyperparams:
    def test_default_values(self):
        hp = Hyperparams()
        assert hp.T == 0.5
        assert hp.lambda_u == 30.0
        assert hp.lambda_c == 0.025
        assert hp.lambda_r == 1.0
        assert hp.kappa == 0.05
        assert hp.d_omega == 0.5
        assert hp.alpha == 4.0
        assert hp.lr == 0.02
        assert hp.momentum == 0.9
        assert hp.weight_decay == 5e-4
        assert hp.batch_size == 64

    def test_validation(self):
        with pytest.raises(ValueError):
            Hyperparams(T=0.0)
        with pytest.raises(ValueError):
            Hyperparams(d_omega=1.5)
        with pytest.raises(ValueError):
            Hyperparams(total_epochs=5, warmup_epochs=10)

    def test_invalid_learning_rate(self):
        # every SGD step takes its learning rate from here (decayed_lr)
        for lr in (0.0, -0.02):
            with pytest.raises(ValueError, match=r"^lr: .* out of range \[1e-12, "):
                Hyperparams(lr=lr)

    def test_lr_decay_schedule(self):
        hp = Hyperparams(lr=0.02, lr_decay_factor=0.1, lr_decay_every=120)
        assert decayed_lr(hp, 0) == 0.02
        assert decayed_lr(hp, 119) == 0.02
        assert decayed_lr(hp, 120) == pytest.approx(0.002)
        assert decayed_lr(hp, 240) == pytest.approx(0.0002)
