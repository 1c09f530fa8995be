import json
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import reference_ops as ref
from conftest import (as_float64, f64, finite_difference_grad, max_relative_error, select,
                      serial_sgd_steps, ssl_epoch, warmup_epochs)
from noisytrain import kernel, model, training
from noisytrain.cli import main
from noisytrain.config import config_from_dict
from noisytrain.data import (AugmentationSpec, batch_iterator, inject_symmetric_noise,
                             make_gaussian_blobs, strong_augment, weak_augment)
from noisytrain.kernel import GradientTape, Matrix, backward, concat_rows, record, wrap
from noisytrain.model import (ALL_GROUPS, PHI, PSI, THETA, Arch, TwinNetworks, ensemble_softmax,
                              forward_logits, forward_projection, forward_softmax, init_network,
                              init_twins, layout)
from noisytrain.runner import cmd_run
from noisytrain.selection import CutoffParams, DivergenceReport, select_clean
from noisytrain.training import (AblationFlags, Hyperparams, TrainingDivergedError,
                                 blend_targets, decayed_lr,
                                 guess_pseudo_labels, loss_contrastive,
                                 loss_lu, loss_lx, loss_reg, mixmatch_assemble,
                                 mixup, mixup_with_lambda, one_hot,
                                 refine_labels, refinement_weights,
                                 sharpen, total_loss,
                                 train_half_epoch, warmup_train)

AUG = AugmentationSpec()
CUTOFF = CutoffParams()
FLAGS = AblationFlags()
HUGE = float(np.finfo(kernel.DTYPE).max)   # the largest velocity entry training holds


def snapshot(net):
    return {name: m.data.copy() for name, m in net.params.items()}


def params_equal(a, b):
    return all(np.array_equal(a[k], b[k]) for k in a)


class TestSharpen:
    def test_uniform_fixed_point(self):
        out = sharpen(np.array([[0.25, 0.25, 0.25, 0.25]]), 0.5)
        assert np.allclose(out, 0.25, atol=1e-12)

    def test_worked_value(self):
        out = sharpen(np.array([[0.8, 0.2]]), 0.5)
        assert np.allclose(out, [[0.941176, 0.058824]], atol=1e-6)

    def test_temperature_one_identity(self):
        p = np.array([[0.3, 0.6, 0.1]])
        assert np.allclose(sharpen(p, 1.0), p, atol=1e-12)

    def test_one_hot_unchanged(self):
        p = np.array([[0.0, 1.0, 0.0]])
        assert np.array_equal(sharpen(p, 0.5), p)

    def test_smallest_declared_temperature_keeps_uniform_row(self):
        # Hyperparams' lowest T, on a row of DatasetConfig's most classes
        out = sharpen(np.full((1, 1000), 1e-3), Hyperparams(T=0.01).T)
        assert np.all(np.isfinite(out)) and np.all(out == out[0, 0])
        assert out[0, 0] == pytest.approx(1e-3, rel=1e-12)

    @pytest.mark.parametrize("row", [np.full(1000, 1e-3), np.full(4, 0.25),
                                     [0.4, 0.3, 0.2, 0.1], [1e-3, 2e-3] + [0.997 / 998] * 998],
                             ids=["uniform-1000", "uniform-4", "skewed-4", "skewed-1000"])
    def test_smallest_declared_temperature_is_finite_in_the_training_dtype(self, row):
        # p ** 100 underflows every entry of these rows in float32 unless it is scaled first
        p = np.array([row], dtype=kernel.DTYPE)
        out = sharpen(p, Hyperparams(T=0.01).T)
        assert out.dtype == kernel.DTYPE
        assert np.all(np.isfinite(out))
        assert out.sum() == pytest.approx(1.0, abs=1e-6)
        assert np.argmax(out) == np.argmax(p)

    def test_scaling_keeps_the_bits_of_the_default_temperature(self, rng):
        # a power-of-two scale is exact, so at T = 0.5 the rows keep their unscaled bits
        p = rng.dirichlet(np.full(10, 0.5), size=200).astype(kernel.DTYPE)
        powered = p ** 2.0
        assert np.array_equal(sharpen(p, 0.5), powered / powered.sum(axis=1, keepdims=True))

    @pytest.mark.parametrize("T", [float("nan"), True, 0.0, -1.0, float("inf"), "0.5",
                                   0.001, 0.0099])
    def test_bad_temperature_is_named(self, T):
        with pytest.raises(ValueError, match="^T: "):
            sharpen(np.array([[0.8, 0.2]]), T)


@pytest.mark.parametrize("labels,message", [
    ([0.5, 1.7, -1], r"labels: 0\.5 is not an integer"),
    ([0, 3, 1], r"labels: indices 0\.\.3 outside \[0, 3\)"),
    ([0, -1, 1], r"labels: indices -1\.\.1 outside \[0, 3\)"),
], ids=["fractional", "label-C", "negative"])
def test_one_hot_refuses_labels_that_are_not_classes(labels, message):
    # these gave rows for classes 0, 1 and 2, truncating and wrapping
    with pytest.raises(ValueError, match=f"^{message}$"):
        one_hot(labels, 3)


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
        out = blend_targets(np.array([[1.0, 0.0]]), np.array([[0.6, 0.4]]), np.array([0.3]))
        assert np.allclose(out, [[0.72, 0.28]], atol=1e-12)

    def test_weight_one_keeps_one_hot(self):
        net = init_network(Arch(3, 8, 2, 2), seed=1)
        x = Matrix(np.random.default_rng(0).normal(size=(4, 3)))
        y = one_hot([0, 1, 0, 1], 2)
        out = refine_labels(net, x, x, y, np.ones(4), T=0.5)
        assert np.allclose(out, y, atol=1e-12)

    def test_weight_zero_gives_model_average(self):
        net = init_network(Arch(3, 8, 2, 2), seed=1)
        rng = np.random.default_rng(0)
        x1 = Matrix(rng.normal(size=(4, 3)))
        x2 = Matrix(rng.normal(size=(4, 3)))
        y = one_hot([0, 1, 0, 1], 2)
        out = refine_labels(net, x1, x2, y, np.zeros(4), T=1.0)
        expected = (forward_softmax(net, x1) + forward_softmax(net, x2)) / 2
        assert np.allclose(out, expected, atol=1e-9)


class TestGuessPseudoLabels:
    def test_identical_twins_same_view_equals_single_forward(self):
        net = init_network(Arch(3, 8, 2, 2), seed=1)
        twins = TwinNetworks(net, net)
        x = Matrix(np.random.default_rng(0).normal(size=(4, 3)))
        q = guess_pseudo_labels(twins, x, x, T=1.0)
        assert np.allclose(q, forward_softmax(net, x), atol=1e-9)

    def test_rows_sum_to_one(self):
        twins = init_twins(Arch(3, 8, 4, 2), seed=5)
        rng = np.random.default_rng(1)
        q = guess_pseudo_labels(twins, Matrix(rng.normal(size=(6, 3))),
                                Matrix(rng.normal(size=(6, 3))), T=0.5)
        assert np.allclose(q.sum(axis=1), 1.0, atol=1e-6)

    def test_average_of_four_forwards(self):
        twins = init_twins(Arch(3, 8, 4, 2), seed=5)
        rng = np.random.default_rng(1)
        u1 = Matrix(rng.normal(size=(6, 3)))
        u2 = Matrix(rng.normal(size=(6, 3)))
        q = guess_pseudo_labels(twins, u1, u2, T=1.0)
        manual = (forward_softmax(twins.net1, u1) + forward_softmax(twins.net1, u2)
                  + forward_softmax(twins.net2, u1) + forward_softmax(twins.net2, u2)) / 4
        manual = manual / manual.sum(axis=1, keepdims=True)
        assert np.allclose(q, manual, atol=1e-9)

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
        x1, t1 = np.array([[1.0, 2.0]]), np.array([[1.0, 0.0]])
        x2, t2 = np.array([[5.0, 6.0]]), np.array([[0.0, 1.0]])
        inputs, targets = mixup_with_lambda(x1, t1, x2, t2, np.array([1.0]))
        assert np.array_equal(inputs, x1)
        assert np.array_equal(targets, t1)

    def test_worked_target_mix(self):
        _, targets = mixup_with_lambda(np.array([[0.0]]), np.array([[1.0, 0.0]]),
                                       np.array([[1.0]]), np.array([[0.0, 1.0]]), np.array([0.7]))
        assert np.allclose(targets, [[0.7, 0.3]], atol=1e-12)

    def test_targets_stay_distributions(self, rng):
        t1 = rng.dirichlet(np.ones(3), size=8)
        t2 = rng.dirichlet(np.ones(3), size=8)
        x = rng.normal(size=(8, 2))
        _, targets = mixup(x, t1, x, t2, alpha=4.0, rng=np.random.default_rng(3))
        assert np.allclose(targets.sum(axis=1), 1.0, atol=1e-6)

    def test_lambda_prime_at_least_half(self):
        # mixing targets [1, 0] with [0, 1] leaves each row's lambda' as its first target
        x = np.zeros((200, 2))
        t1, t2 = np.tile([1.0, 0.0], (200, 1)), np.tile([0.0, 1.0], (200, 1))
        _, targets = mixup(x, t1, x, t2, alpha=4.0, rng=np.random.default_rng(4))
        lam = targets[:, 0]
        assert np.all((lam >= 0.5) & (lam <= 1.0))


class TestMixmatchAssemble:
    def _entries(self, rng, n, dims=3, classes=2):
        return rng.normal(size=(n, dims)), rng.dirichlet(np.ones(classes), size=n)

    def test_sizes(self, rng):
        inputs, targets = self._entries(rng, 10)
        mixed_inputs, mixed_targets = mixmatch_assemble(inputs, targets, 4.0,
                                                        np.random.default_rng(0))
        assert mixed_inputs.shape == (10, 3) and mixed_targets.shape == (10, 2)

    def test_each_row_is_convex_combo_with_union(self, rng):
        union, targets = self._entries(rng, 8)
        mixed_inputs, _ = mixmatch_assemble(union, targets, 4.0, np.random.default_rng(1))
        for i in range(8):
            moved = mixed_inputs[i] - union[i]
            if not moved.any():   # lambda' == 1, or mixed with itself
                continue
            # the partner's weight 1 - lambda' along the step from row i to each union row
            steps = union - union[i]
            weight = steps @ moved / np.maximum((steps * steps).sum(axis=1), 1e-300)
            miss = np.abs(steps * weight[:, None] - moved).max(axis=1)
            j = miss.argmin()
            assert miss[j] < 1e-8 and 0.0 < weight[j] <= 0.5

    def test_deterministic_given_seed(self, rng):
        inputs, targets = self._entries(rng, 8)
        a_inputs, a_targets = mixmatch_assemble(inputs, targets, 4.0, np.random.default_rng(7))
        b_inputs, b_targets = mixmatch_assemble(inputs, targets, 4.0, np.random.default_rng(7))
        assert a_inputs.tobytes() == b_inputs.tobytes()
        assert a_targets.tobytes() == b_targets.tobytes()

    def test_clean_only_union_mixes_among_themselves(self, rng):
        inputs, targets = self._entries(rng, 5)
        mixed_inputs, mixed_targets = mixmatch_assemble(inputs, targets, 4.0,
                                                        np.random.default_rng(9))
        ref_rng = np.random.default_rng(9)
        perm = ref_rng.permutation(5)
        want_inputs, want_targets = mixup(inputs, targets, inputs[perm], targets[perm], 4.0,
                                          ref_rng)
        assert mixed_inputs.tobytes() == want_inputs.tobytes()
        assert mixed_targets.tobytes() == want_targets.tobytes()

    @pytest.mark.parametrize("alpha", [1e-9, 0.05, 0.75, 1.0, 4.0])
    @pytest.mark.parametrize("seed", range(6))
    def test_one_mix_of_the_union_equals_the_two_part_mix(self, seed, alpha):
        rng = np.random.default_rng(seed)
        n_x = int(rng.integers(1, 40))
        n_u = 0 if seed % 3 == 0 else int(rng.integers(1, 40))   # every third has no noisy rows
        dims, classes = int(rng.integers(1, 9)), int(rng.integers(2, 6))
        xi, xt = self._entries(rng, n_x, dims, classes)
        ui, ut = self._entries(rng, n_u, dims, classes)
        got_rng, want_rng = np.random.default_rng([seed, 1]), np.random.default_rng([seed, 1])
        mixed_inputs, mixed_targets = mixmatch_assemble(np.vstack([xi, ui]), np.vstack([xt, ut]),
                                                        alpha, got_rng)
        (x_inputs, x_targets), (u_inputs, u_targets) = ref.two_part_mixmatch(
            xi, xt, ui, ut, alpha, want_rng)
        assert mixed_inputs.tobytes() == np.vstack([x_inputs, u_inputs]).tobytes()
        assert mixed_targets.tobytes() == np.vstack([x_targets, u_targets]).tobytes()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


class TestLossValues:
    def test_lx_perfect_one_hot_is_zero(self):
        logits = f64([[100.0, 0.0, 0.0]])
        target = np.array([[1.0, 0.0, 0.0]])
        assert loss_lx(logits, target).item() == pytest.approx(0.0, abs=1e-12)

    def test_lx_uniform_entropy(self):
        val = loss_lx(f64([[0.0, 0.0]]), np.array([[0.5, 0.5]])).item()
        assert val == pytest.approx(np.log(2), abs=1e-12)

    def test_lx_nonnegative_for_one_hot(self, rng):
        for _ in range(20):
            logits = f64(rng.normal(size=(5, 4)))
            targets = one_hot(rng.integers(0, 4, 5), 4)
            assert loss_lx(logits, targets).item() >= 0.0

    def test_lu_perfect_match_zero(self):
        logits = f64([[0.0, 0.0]])
        assert loss_lu(logits, np.array([[0.5, 0.5]])).item() == pytest.approx(0.0, abs=1e-12)

    def test_lu_worked_value(self):
        logits = f64([[np.log(0.6), np.log(0.4)]])
        assert loss_lu(logits, np.array([[1.0, 0.0]])).item() == pytest.approx(0.32, abs=1e-9)

    def test_lu_bounded_by_two(self, rng):
        for _ in range(20):
            logits = f64(rng.normal(size=(6, 3), scale=5))
            targets = rng.dirichlet(np.ones(3), size=6)
            assert loss_lu(logits, targets).item() <= 2.0

    def test_reg_uniform_mean_zero(self):
        logits = f64([[1.0, 2.0], [2.0, 1.0]])  # softmax rows mirror each other
        assert loss_reg(logits, 2).item() == pytest.approx(0.0, abs=1e-12)

    def test_reg_worked_value(self):
        logits = f64([[np.log(0.9), np.log(0.1)]])
        assert loss_reg(logits, 2).item() == pytest.approx(0.510826, abs=1e-6)

    def test_reg_nonnegative(self, rng):
        for _ in range(20):
            logits = f64(rng.normal(size=(5, 4), scale=3))
            assert loss_reg(logits, 4).item() >= -1e-12

    def test_contrastive_single_pair_exactly_zero(self):
        z = f64([[1.0, 0.0], [0.0, 1.0]])
        assert loss_contrastive(z, kappa=0.05).item() == 0.0

    def test_contrastive_identical_embeddings(self):
        z = f64(np.tile([1.0, 0.0], (4, 1)))
        assert loss_contrastive(z, kappa=0.05).item() == pytest.approx(np.log(3), abs=1e-9)

    def test_contrastive_orthogonal_pairs_near_zero(self):
        z = f64([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        assert loss_contrastive(z, kappa=0.05).item() < 1e-8

    def test_contrastive_swap_invariance(self, rng):
        z = rng.normal(size=(8, 4))
        z = z / np.linalg.norm(z, axis=1, keepdims=True)
        swapped = z.copy()
        for b in range(4):
            swapped[[2 * b, 2 * b + 1]] = swapped[[2 * b + 1, 2 * b]]
        a = loss_contrastive(f64(z), 0.05).item()
        b = loss_contrastive(f64(swapped), 0.05).item()
        assert a == pytest.approx(b, abs=1e-12)

    def test_contrastive_empty_batch_zero(self):
        assert loss_contrastive(f64(np.zeros((0, 3))), 0.05).item() == 0.0

    @staticmethod
    def _nt_xent_long_double(z: np.ndarray, kappa: float):
        """NT-Xent from its definition, in long double: the mean over rows i
        of -log(exp(s_ip) / sum_{j != i} exp(s_ij)), s = z z^T / kappa, p the
        other view of i; and its gradient in z."""
        z = z.astype(np.longdouble)
        n = len(z)
        sim = (z @ z.T) / np.longdouble(kappa)
        idx = np.arange(n)
        partner = idx ^ 1
        ratio = np.exp(sim - sim[idx, partner][:, None])
        ratio[idx, idx] = 0
        denom = ratio.sum(axis=1, keepdims=True)
        loss = np.log(denom).mean()
        d_sim = ratio / denom   # dL/ds_ij, times n
        d_sim[idx, partner] -= 1
        return loss, (d_sim + d_sim.T) @ z / (n * np.longdouble(kappa))

    @pytest.mark.parametrize("kappa", [1e-3, 0.05, 10.0])
    @pytest.mark.parametrize("n", [2, 4, 16, 128])
    def test_contrastive_matches_long_double_definition(self, n, kappa):
        rng = np.random.default_rng(n)
        z = rng.normal(size=(n, 8))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        tape = GradientTape()
        zm = wrap(z)
        tape.watch(zm)
        loss = loss_contrastive(zm, kappa, tape)
        grad = backward(tape, loss)[zm]
        want_loss, want_grad = self._nt_xent_long_double(z, kappa)
        assert abs(loss.item() - want_loss) <= 1e-12 * abs(want_loss)
        assert np.max(np.abs(grad - want_grad)) <= 1e-12 * np.max(np.abs(want_grad))

    def test_contrastive_holds_under_three_square_arrays(self, monkeypatch):
        # one forward and backward: a single n x n exponential, no mask and no copy
        n = 512
        z = np.random.default_rng(0).normal(size=(n, 32))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        tape = GradientTape()
        zm = Matrix(z)   # in the training dtype, which the bound below is in
        tape.watch(zm)
        exp = np.exp
        square_exps = []

        def counting_exp(x, *args, **kwargs):
            square_exps.append(np.size(x) == n * n)
            return exp(x, *args, **kwargs)
        monkeypatch.setattr(np, "exp", counting_exp)
        tracemalloc.start()
        try:
            backward(tape, loss_contrastive(zm, 0.05, tape))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert square_exps.count(True) == 1
        assert peak < 3 * n * n * zm.data.itemsize

    def test_total_loss_combinations(self):
        hp = Hyperparams()
        zero = f64([[0.0]])
        assert total_loss(zero, zero, zero, zero, hp).item() == 0.0
        lx = f64([[0.5]])
        hp0 = Hyperparams(lambda_u=0.0, lambda_c=0.0, lambda_r=0.0)
        assert total_loss(lx, f64([[9.0]]), f64([[9.0]]), f64([[9.0]]), hp0).item() == 0.5
        val = total_loss(f64([[0.5]]), f64([[0.01]]), f64([[0.1]]),
                         f64([[1.0]]), Hyperparams()).item()
        assert val == pytest.approx(0.925, abs=1e-12)


class TestLossGradients:
    def _net_and_inputs(self, seed=0):
        arch = Arch(in_dim=3, hidden=4, num_classes=3, embed_dim=3)
        net = as_float64(init_network(arch, seed=seed))   # central differences need float64
        rng = np.random.default_rng(seed + 100)
        x = wrap(rng.normal(size=(4, 3)))
        targets = rng.dirichlet(np.ones(3), size=4)
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
            assert max_relative_error(grads[m], numeric) < 1e-4


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
        probs = ensemble_softmax(*(forward_softmax(net, ds.features)
                                   for net in (twins.net1, twins.net2)))
        assert accuracy(probs, ds.given_labels) > 0.95

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
        got, want = self._packed_and_serial(hp, net2_w1_velocity=HUGE)
        assert got[0] == want[0] == (0, 2, "warmup", "w1")
        # net 2 keeps its parameters from before the step and the velocities it updated
        self._assert_same_state(got, want)
        w1 = layout(got[1].net2.arch)[0][1]
        assert np.all(got[1].net2.velocity[w1] != HUGE)

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
        got, want = self._packed_and_serial(hp, net2_w1_velocity=HUGE)
        assert got[0] == want[0] == (0, 1, "warmup", "lx")
        # refused before the update: net 2 never stepped, so its velocity is as it started
        self._assert_same_state(got, want)
        w1 = layout(got[1].net2.arch)[0][1]
        assert np.all(got[1].net2.velocity[w1] == HUGE)
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
        report, sel = select(twins, 1, ds, CUTOFF, FLAGS)
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
        sel = select_clean(report, ds.given_labels, 3, 1.0, d_cutoff=0.9)
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
        sel = select_clean(report, ds.given_labels, 3, 1.0, d_cutoff=0.9)
        rec = train_half_epoch(twins, 2, ds, hp, AUG, flags, 1, report, sel)
        net, targets = ref.net2, one_hot(ds.given_labels, 3)
        weights = training.refinement_weights(report.d, hp.d_omega)

        def clean_only(tape, item):
            it, cb = item
            rng = np.random.default_rng([hp.seed, training._S_ITER, 1, 2, it])
            x = ds.features.data[cb]
            xw1, xw2, xs1, xs2 = (f(x, AUG, rng) for f in (weak_augment, weak_augment,
                                                          strong_augment, strong_augment))
            y = refine_labels(net, wrap(xw1), wrap(xw2), targets[cb], weights[cb], hp.T)
            x_in = np.stack([xs1, xs2], axis=1).reshape(2 * len(cb), -1)
            x_t = np.repeat(y, 2, axis=0)
            perm = rng.permutation(len(x_in))
            mixed_inputs, mixed_targets = mixup(x_in, x_t, x_in[perm], x_t[perm], hp.alpha, rng)
            logits = forward_logits(net, wrap(mixed_inputs), tape)
            lx, lreg = loss_lx(logits, mixed_targets, tape), loss_reg(logits, 3, tape)
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

    @pytest.mark.parametrize("flags", [FLAGS, AblationFlags(contrastive=False)],
                             ids=["contrastive", "no-contrastive"])
    def test_half_equals_the_two_part_mixmatch_reference(self, flags):
        # reference: clean and noisy views interleaved and repeated apart, then
        # mixed against their parts of one shuffle of the union in two mixup calls
        ds, hp, twins = self._setup()
        _, _, ref_twins = self._setup()
        report, sel = select(twins, 1, ds, CUTOFF, FLAGS)
        assert len(sel.clean_indices) and len(sel.noisy_indices)
        rec = train_half_epoch(twins, 1, ds, hp, AUG, flags, 1, report, sel)
        net, targets = ref_twins.net1, one_hot(ds.given_labels, 3)
        weights = training.refinement_weights(report.d, hp.d_omega)

        def views(idx, rng):
            x = ds.features.data[idx]
            return [f(x, AUG, rng) for f in (weak_augment, weak_augment,
                                             strong_augment, strong_augment)]

        def interleave(a, b):
            return np.stack([a, b], axis=1).reshape(2 * len(a), -1)

        def two_part(tape, item):
            it, (cb, ub) = item
            rng = np.random.default_rng([hp.seed, training._S_ITER, 1, 1, it])
            xw1, xw2, xs1, xs2 = views(cb, rng)
            y = refine_labels(net, wrap(xw1), wrap(xw2), targets[cb], weights[cb], hp.T)
            uw1, uw2, us1, us2 = views(ub, rng)
            q = guess_pseudo_labels(ref_twins, wrap(uw1), wrap(uw2), hp.T)
            u_in = interleave(us1, us2)
            (x_inputs, x_targets), (u_inputs, u_targets) = ref.two_part_mixmatch(
                interleave(xs1, xs2), np.repeat(y, 2, axis=0), u_in, np.repeat(q, 2, axis=0),
                hp.alpha, rng)
            logits_x = forward_logits(net, wrap(x_inputs), tape)
            logits_u = forward_logits(net, wrap(u_inputs), tape)
            lx, lu = loss_lx(logits_x, x_targets, tape), loss_lu(logits_u, u_targets, tape)
            lreg = loss_reg(concat_rows(logits_x, logits_u, tape), 3, tape)
            lc = (loss_contrastive(forward_projection(net, wrap(u_in), tape), hp.kappa, tape)
                  if flags.contrastive else Matrix.zeros(1, 1))
            return total_loss(lx, lu, lreg, lc, hp, tape), {"lx": lx, "lu": lu, "lreg": lreg,
                                                             "lc": lc}

        batches = [batch_iterator(idx, hp.batch_size, (hp.seed, tag, 1), 1) for idx, tag in
                   ((sel.clean_indices, training._S_CLEAN), (sel.noisy_indices, training._S_NOISY))]
        steps = training._sgd_steps(net, hp, decayed_lr(hp, 1), ALL_GROUPS,
                                    enumerate(zip(*batches)), two_part, (1, 1, "ssl"))
        for name in ALL_GROUPS:
            assert twins.net1.params[name].data.tobytes() == net.params[name].data.tobytes()
        assert twins.net1.velocity.tobytes() == net.velocity.tobytes()
        assert rec.losses == {k: float(np.mean([s[k] for s in steps])) for k in steps[0]}

    def test_clean_set_empty_makes_no_step(self, monkeypatch, caplog):
        # one step per clean batch: none, and no training on the rejected labels
        ds, hp, twins = self._setup()
        report = DivergenceReport.from_values(np.linspace(0.4, 0.99, len(ds)))
        sel = select_clean(report, ds.given_labels, 3, 0.0, d_cutoff=0.1)
        assert len(sel.clean_indices) == 0 and len(sel.noisy_indices) == len(ds)
        calls = []
        monkeypatch.setattr(training, "backward", lambda *a: calls.append("backward"))
        monkeypatch.setattr(training, "sgd_step", lambda *a: calls.append("sgd_step"))
        params, velocity = dict(twins.net1.params), twins.net1.velocity.tobytes()
        rec = train_half_epoch(twins, 1, ds, hp, AUG, FLAGS, 1, report, sel)
        assert calls == []
        assert all(twins.net1.params[n] is params[n] for n in ALL_GROUPS)
        assert twins.net1.velocity.tobytes() == velocity
        assert rec.degenerate == "empty_clean"
        assert rec.losses == {"lx": 0.0, "lu": 0.0, "lreg": 0.0, "lc": 0.0}
        assert [r.getMessage() for r in caplog.records] == \
            ["epoch 1 net 1: clean set empty, no step made"]

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

    @pytest.mark.parametrize("flags", [
        AblationFlags(), AblationFlags(ensemble=False), AblationFlags(contrastive=False),
    ], ids=["all-on", "no-ensemble", "no-contrastive"])
    def test_step_builds_no_checked_matrices(self, monkeypatch, flags):
        # the step's own arrays are wrapped, not copied and scanned; the
        # one finiteness check of training is in _sgd_steps.  Predictions
        # and targets are plain arrays, so neither a selection (the
        # ensemble included) nor a half builds a checked Matrix.
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
            report, sel = select(twins, net_index, ds, CUTOFF, flags)
            where[0] = "half"
            assert train_half_epoch(twins, net_index, ds, hp, AUG, flags, 1,
                                    report, sel).degenerate is None
        assert inits == {"select": 0, "half": 0}

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
        sel = select_clean(report, ds.given_labels, 3, 0.5, d_cutoff=0.5)
        assert len(sel.clean_indices) and len(sel.noisy_indices)
        before = dict(net.params)
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # the zero norm must not warn either
            with pytest.raises(TrainingDivergedError) as info:
                train_half_epoch(twins, 1, ds, hp, AUG, FLAGS, 1, report, sel)
        err = info.value
        assert (err.epoch, err.net, err.phase, err.term) == (1, 1, "ssl", "lc")
        assert all(net.params[n] is before[n] for n in ALL_GROUPS)   # no update


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


class TestMatrixOnlyWhereReadOrRecorded:
    """A ``Matrix`` wraps what a network reads and what the tape records;
    augmented views, the MixMatch mix and gradients are plain arrays."""

    def test_augmentations_mixes_and_gradients_are_arrays(self, rng):
        x, t = rng.normal(size=(4, 3)), rng.dirichlet(np.ones(2), size=4)
        assert type(weak_augment(x, AUG, rng)) is np.ndarray
        assert type(strong_augment(x, AUG, rng)) is np.ndarray
        assert type(training._interleave_two_views(x, x)) is np.ndarray
        for mixed in (mixup_with_lambda(x, t, x, t, np.full(4, 0.7)), mixup(x, t, x, t, 4.0, rng),
                      mixmatch_assemble(x, t, 4.0, rng)):
            assert [type(a) for a in mixed] == [np.ndarray, np.ndarray]
        net = init_network(Arch(3, 8, 2, 4), seed=0)
        tape = GradientTape()
        for p in net.params.values():
            tape.watch(p)
        grads = backward(tape, loss_lx(forward_logits(net, Matrix(x), tape), t, tape))
        assert len(grads) == len(net.params) and all(type(g) is np.ndarray for g in grads.values())

    def test_an_ssl_step_wraps_only_the_weak_views_the_read_blocks_and_the_tape(self, monkeypatch):
        # one clean and one noisy batch, so one iteration; every loss term runs
        ds = inject_symmetric_noise(make_gaussian_blobs(3, 30, 4, 8.0, seed=3), 0.4, seed=4)
        hp = Hyperparams(seed=3, batch_size=90, warmup_epochs=1, total_epochs=3)
        twins = init_twins(Arch(4, 16, 3, 4), seed=3)
        warmup_train(twins, ds, hp, 0)
        report, sel = select(twins, 1, ds, CUTOFF, FLAGS)
        wrapped, weak, blocks, outputs = [], [], [], []
        wrap_fn, record_fn = kernel.wrap, kernel.record
        softmax, logits, projection = (training.forward_softmax, training.forward_logits,
                                       training.forward_projection)

        def counting_wrap(arr):
            wrapped.append(wrap_fn(arr))
            return wrapped[-1]

        def reading_softmax(net, x):
            weak.append(x)
            return softmax(net, x)

        def reading(forward):
            def call(net, x, tape=None):
                blocks.append(x)
                return forward(net, x, tape)
            return call

        def recording(tape, inputs, out, backward_fn):
            record_fn(tape, inputs, out, backward_fn)
            if tape is not None and tape.tracks(out):
                outputs.append(out)
            return out
        for module in [m for name, m in sys.modules.items() if name.startswith("noisytrain.")]:
            if getattr(module, "wrap", None) is wrap_fn:
                monkeypatch.setattr(module, "wrap", counting_wrap)
        monkeypatch.setattr(kernel, "record", recording)
        monkeypatch.setattr(training, "forward_softmax", reading_softmax)
        monkeypatch.setattr(training, "forward_logits", reading(logits))
        monkeypatch.setattr(training, "forward_projection", reading(projection))
        rec = train_half_epoch(twins, 1, ds, hp, AUG, FLAGS, 1, report, sel)
        assert rec.degenerate is None and rec.losses["lc"] != 0.0
        assert len(blocks) == 3   # the mixed clean rows, the mixed noisy rows, the noisy union rows
        assert len({id(m) for m in weak}) == 4   # each network reads both weak views of each batch
        taped = {id(m) for m in outputs + list(twins.net1.params.values())}
        assert sorted(id(m) for m in wrapped if id(m) not in taped) == \
            sorted({id(m) for m in weak + blocks})


class TestTrainingDtype:
    """Training computes in float32: one float64 operand, such as a 1x1 loss
    constant or backward's seed, would upcast every gradient of the step and
    every product of its backward (numpy 2's promotion rules)."""

    def test_warmup_and_ssl_steps_stay_in_float32(self, monkeypatch):
        ds = inject_symmetric_noise(make_gaussian_blobs(3, 30, 4, 8.0, seed=3), 0.4, seed=4)
        hp = Hyperparams(seed=3, batch_size=32, warmup_epochs=1, total_epochs=3)
        twins = init_twins(Arch(4, 16, 3, 4), seed=3)
        operands, losses, grads = set(), set(), set()
        hidden, bwd = model._hidden, training.backward

        def checked_hidden(*arrays):
            operands.update(a.dtype for a in arrays if a is not None)
            return hidden(*arrays)

        def checked_backward(tape, loss):
            out = bwd(tape, loss)
            losses.add(loss.data.dtype)
            grads.update(g.dtype for g in out.values())
            return out
        monkeypatch.setattr(model, "_hidden", checked_hidden)
        monkeypatch.setattr(training, "backward", checked_backward)
        warmup_train(twins, ds, hp, 0)
        report, sel = select(twins, 1, ds, CUTOFF, FLAGS)
        rec = train_half_epoch(twins, 1, ds, hp, AUG, FLAGS, 1, report, sel)
        assert rec.degenerate is None and rec.losses["lc"] != 0.0   # every term ran
        assert report.d.dtype == np.float64   # selection reads float64 divergences
        assert operands == losses == grads == {np.dtype(np.float32)}
        for net in (twins.net1, twins.net2):
            assert {m.data.dtype for m in net.params.values()} == {np.dtype(np.float32)}
            assert net.velocity.dtype == np.float32

    @staticmethod
    def _ssl_gradients(net, b):
        """Every parameter's gradient of one SSL step's total loss, laid out
        as ``train_half_epoch`` lays it out, with every term on."""
        hp = Hyperparams()
        tape = GradientTape()
        for name in ALL_GROUPS:
            tape.watch(net.params[name])
        logits_x = forward_logits(net, b["x_in"], tape)
        logits_u = forward_logits(net, b["u_in"], tape)
        lx = loss_lx(logits_x, b["x_t"], tape)
        lu = loss_lu(logits_u, b["u_t"], tape)
        lreg = loss_reg(concat_rows(logits_x, logits_u, tape), net.arch.num_classes, tape)
        lc = loss_contrastive(forward_projection(net, b["union"], tape), hp.kappa, tape)
        grads = backward(tape, total_loss(lx, lu, lreg, lc, hp, tape))
        return {name: grads[net.params[name]] for name in ALL_GROUPS}

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("arch,batch", [(Arch(8, 64, 4, 16), 64),
                                            (Arch(32, 128, 10, 32), 128)], ids=["desk", "wide"])
    def test_float32_ssl_gradients_match_float64_ones(self, arch, batch, seed):
        # the float64 gradient of the same network and batch, upcast, is the reference
        rng = np.random.default_rng(seed)
        n = 2 * batch   # two strong views per sample

        def rows():
            return rng.normal(scale=3.0, size=(n, arch.in_dim)).astype(np.float32)
        x32 = {"x_in": rows(), "u_in": rows(), "union": rows(),
               "x_t": rng.dirichlet(np.full(arch.num_classes, 0.3), size=n).astype(np.float32),
               "u_t": rng.dirichlet(np.full(arch.num_classes, 0.3), size=n).astype(np.float32)}
        x64 = {k: v.astype(np.float64) for k, v in x32.items()}
        for b in (x32, x64):
            for k in ("x_in", "u_in", "union"):
                b[k] = wrap(b[k])
        net = init_network(arch, seed)
        g32 = self._ssl_gradients(net, x32)
        g64 = self._ssl_gradients(as_float64(net), x64)
        for name in ALL_GROUPS:
            assert g32[name].dtype == np.float32 and g64[name].dtype == np.float64
            err = np.linalg.norm(g32[name] - g64[name]) / np.linalg.norm(g64[name])
            assert err <= 1e-4, name


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
