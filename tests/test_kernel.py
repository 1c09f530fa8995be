import numpy as np
import pytest

import reference_ops as ref
from conftest import finite_difference_grad, max_relative_error, random_matrix
from noisytrain import kernel
from noisytrain.kernel import GradientTape, Matrix, backward, sgd_step
from reference_ops import DegenerateEmbeddingError


class TestMatrix:
    def test_one_dim_input_becomes_row(self):
        m = Matrix([1.0, 2.0, 3.0])
        assert m.shape == (1, 3)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Matrix([[1.0, float("nan")]])
        with pytest.raises(ValueError):
            Matrix([[float("inf")]])

    def test_row_major_layout(self):
        m = Matrix([[1.0, 2.0], [3.0, 4.0]])
        assert m.data.flags["C_CONTIGUOUS"]
        assert m.data.reshape(-1).tolist() == [1.0, 2.0, 3.0, 4.0]


class TestMatmul:
    def test_identity(self, rng):
        m = random_matrix(rng, 3, 5)
        eye = Matrix(np.eye(3))
        assert np.array_equal(kernel.matmul(eye, m).data, m.data)

    def test_hand_arithmetic(self):
        out = kernel.matmul(Matrix([[1.0, 2.0], [3.0, 4.0]]), Matrix([[1.0], [1.0]]))
        assert out.data.tolist() == [[3.0], [7.0]]

    def test_zero_matrix(self, rng):
        m = random_matrix(rng, 4, 2)
        z = Matrix.zeros(2, 4)
        assert np.all(kernel.matmul(z, m).data == 0.0)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ValueError, match=r"^matmul shapes do not align: \(2, 3\) @ \(2, 3\)$"):
            kernel.matmul(Matrix.zeros(2, 3), Matrix.zeros(2, 3))

    def test_associative_with_identity(self, rng):
        for _ in range(20):
            a = random_matrix(rng, 3, 4)
            b = random_matrix(rng, 4, 5)
            c = random_matrix(rng, 5, 2)
            left = kernel.matmul(kernel.matmul(a, b), c).data
            right = kernel.matmul(a, kernel.matmul(b, c)).data
            assert np.max(np.abs(left - right)) < 1e-12


class TestSoftmax:
    def test_zero_row_uniform(self):
        out = ref.softmax_rows(Matrix([[0.0, 0.0, 0.0, 0.0]]))
        assert np.allclose(out.data, 0.25, atol=1e-12)

    def test_closed_form(self):
        out = ref.softmax_rows(Matrix([[np.log(2.0), 0.0]]))
        assert np.allclose(out.data, [[2 / 3, 1 / 3]], atol=1e-12)

    def test_shift_invariance(self, rng):
        m = random_matrix(rng, 5, 4)
        shifted = Matrix(m.data + 7.25)
        assert np.allclose(ref.softmax_rows(m).data,
                           ref.softmax_rows(shifted).data, atol=1e-12)

    def test_rows_are_distributions(self, rng):
        for _ in range(20):
            m = random_matrix(rng, 6, 5, lo=-30, hi=30)
            out = ref.softmax_rows(m).data
            assert np.all(out >= 0.0)
            assert np.allclose(out.sum(axis=1), 1.0, atol=1e-9)


class TestL2Normalize:
    def test_hand_value(self):
        out = ref.l2_normalize_rows(Matrix([[3.0, 4.0]]))
        assert np.allclose(out.data, [[0.6, 0.8]], atol=1e-12)

    def test_unit_row_unchanged(self):
        out = ref.l2_normalize_rows(Matrix([[1.0, 0.0]]))
        assert np.allclose(out.data, [[1.0, 0.0]], atol=1e-12)

    def test_zero_row_raises(self):
        with pytest.raises(DegenerateEmbeddingError):
            ref.l2_normalize_rows(Matrix([[0.0, 0.0]]))

    def test_norms_are_one(self, rng):
        out = ref.l2_normalize_rows(random_matrix(rng, 8, 3)).data
        assert np.allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-9)


class TestLseOffdiag:
    def test_matches_manual_logsumexp(self, rng):
        a = random_matrix(rng, 5, 5, lo=-3, hi=3)
        out = ref.lse_offdiag_rows(a).data
        for i in range(5):
            terms = np.exp([a.data[i, j] for j in range(5) if j != i])
            assert out[i, 0] == pytest.approx(np.log(terms.sum()), abs=1e-12)

    def test_two_by_two_is_exact(self):
        a = Matrix([[1.0, 20.0], [20.0, 1.0]])
        out = ref.lse_offdiag_rows(a).data
        assert out[0, 0] == 20.0
        assert out[1, 0] == 20.0


class TestBackward:
    def test_linear_loss_grad_is_input_broadcast(self, rng):
        w = random_matrix(rng, 2, 3)
        x = random_matrix(rng, 3, 1)
        tape = GradientTape()
        tape.watch(w)
        loss = ref.sum_all(kernel.matmul(w, x, tape), tape)
        grads = backward(tape, loss)

        def f():
            return ref.sum_all(kernel.matmul(w, x)).item()

        fd = finite_difference_grad(f, [w])
        assert max_relative_error(grads[w].data, fd[0]) < 1e-6

    def test_unused_parameter_gets_zero_grad(self, rng):
        used = random_matrix(rng, 2, 2)
        unused = random_matrix(rng, 2, 2)
        tape = GradientTape()
        tape.watch(used)
        tape.watch(unused)
        loss = ref.sum_all(ref.mul(used, used, tape), tape)
        grads = backward(tape, loss)
        assert np.all(grads[unused].data == 0.0)

    def test_composed_loss_matches_finite_differences(self, rng):
        w1 = random_matrix(rng, 3, 4)
        b1 = random_matrix(rng, 1, 4)
        x = random_matrix(rng, 5, 3)

        def forward(tape=None):
            h = ref.relu(ref.add_row(kernel.matmul(x, w1, tape), b1, tape), tape)
            s = ref.softmax_rows(h, tape)
            return ref.sum_all(ref.mul(s, s, tape), tape)

        tape = GradientTape()
        tape.watch(w1)
        tape.watch(b1)
        grads = backward(tape, forward(tape))
        fd = finite_difference_grad(lambda: forward().item(), [w1, b1])
        assert max_relative_error(grads[w1].data, fd[0]) < 1e-4
        assert max_relative_error(grads[b1].data, fd[1]) < 1e-4

    def test_empty_tape_raises(self):
        tape = GradientTape()
        with pytest.raises(RuntimeError, match="^backward on an empty tape: no operations were "
                                               "recorded$"):
            backward(tape, Matrix([[1.0]]))

    def test_consumed_tape_raises(self, rng):
        w = random_matrix(rng, 2, 2)
        tape = GradientTape()
        tape.watch(w)
        loss = ref.sum_all(ref.mul(w, w, tape), tape)
        backward(tape, loss)
        with pytest.raises(RuntimeError, match="^tape already consumed by a previous backward$"):
            backward(tape, loss)

    def test_constant_inputs_not_recorded(self, rng):
        a = random_matrix(rng, 2, 2)
        b = random_matrix(rng, 2, 2)
        tape = GradientTape()
        out = ref.mul(a, b, tape)
        assert tape.num_records == 0
        assert not tape.tracks(out)


class TestSgdStep:
    def test_plain_gradient_descent(self):
        out = sgd_step(np.array([[1.0, 2.0]]), np.array([[0.5, -0.5]]), np.zeros((1, 2)),
                       learning_rate=0.1, momentum=0.0, weight_decay=0.0)
        assert np.allclose(out, [[0.95, 2.05]], atol=1e-15)

    def test_zero_grad_zero_velocity_is_identity(self):
        p = np.array([[1.0, -3.0]])
        out = sgd_step(p, np.zeros((1, 2)), np.zeros((1, 2)), 0.1, 0.9, 0.0)
        assert np.array_equal(out, p)

    def test_two_step_momentum_recurrence(self):
        lr, g = 0.1, np.array([[2.0]])
        p0, v = np.array([[5.0]]), np.zeros((1, 1))
        p2 = sgd_step(sgd_step(p0, g, v, lr, 0.9, 0.0), g, v, lr, 0.9, 0.0)
        displacement = p0[0, 0] - p2[0, 0]
        assert displacement == pytest.approx(lr * g[0, 0] * (1 + 1.9), abs=1e-12)
        assert v[0, 0] == pytest.approx(g[0, 0] * 1.9, abs=1e-12)   # updated in place

    def test_weight_decay_coupled_into_velocity(self):
        out = sgd_step(np.array([[10.0]]), np.zeros((1, 1)), np.zeros((1, 1)),
                       learning_rate=1.0, momentum=0.0, weight_decay=0.1)
        assert out[0, 0] == pytest.approx(9.0, abs=1e-12)

    def test_mismatched_shapes_rejected(self):
        p = np.zeros((2, 3))
        with pytest.raises(ValueError, match=r"^gradient \(3, 2\) and velocity \(2, 3\) "
                                             r"must match parameter \(2, 3\)$"):
            sgd_step(p, np.zeros((3, 2)), np.zeros((2, 3)), 0.1, 0.9, 0.0)
        with pytest.raises(ValueError, match=r"^gradient \(2, 3\) and velocity \(1, 6\) "
                                             r"must match parameter \(2, 3\)$"):
            sgd_step(p, np.zeros((2, 3)), np.zeros((1, 6)), 0.1, 0.9, 0.0)


def test_determinism_bit_identical(rng):
    a = random_matrix(rng, 6, 6)
    b = random_matrix(rng, 6, 6)
    first = ref.softmax_rows(kernel.matmul(a, b)).data
    second = ref.softmax_rows(kernel.matmul(a, b)).data
    assert first.tobytes() == second.tobytes()


def test_kernel_exports():
    assert sorted(kernel.__all__) == sorted([
        "Matrix", "wrap", "GradientTape", "record", "backward", "matmul", "concat_rows",
        "sgd_step"])
    assert all(hasattr(kernel, name) for name in kernel.__all__)
