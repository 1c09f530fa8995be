"""Primitive tape operations: the reference the fused training path reproduces.

Training records a whole forward pass or a whole loss term as one tape
entry (`model.forward_logits`, `training.loss_lx`, ...).  The functions
here are the small operations those entries replaced, one record each.
`test_fused.py` composes the same math from them and requires the fused
values and gradients to match bit for bit; other suites use them as
plain, obviously correct forms of the same arithmetic.

They record through the public ``kernel.record``, so a reference chain
runs on the same tape as the fused records.  ``matmul`` stays in
``kernel``, where the benchmark counts its calls; it is imported here so
one namespace holds a whole reference chain.

``two_part_mixmatch`` is the MixMatch assembly as two mixes, the labeled
and the unlabeled entries each in its own ``mixup`` call; the one-call
``training.mixmatch_assemble`` over their union must match it byte for byte.
"""

from __future__ import annotations

import numpy as np

from noisytrain.kernel import GradientTape, Matrix, record, wrap
from noisytrain.kernel import matmul  # noqa: F401  (part of the reference chain)
from noisytrain.training import mixup


class DegenerateEmbeddingError(ValueError):
    """A row with zero norm cannot be normalized (collapsed projection)."""


def transpose(a: Matrix, tape: GradientTape | None = None) -> Matrix:
    return record(tape, (a,), wrap(a.data.T.copy()), lambda g, tracked: (g.T,))


def _same_shape(a: Matrix, b: Matrix, op: str) -> None:
    if a.shape != b.shape:
        raise ValueError(f"{op} shapes differ: {a.shape} vs {b.shape}")


def add(a: Matrix, b: Matrix, tape: GradientTape | None = None) -> Matrix:
    _same_shape(a, b, "add")
    return record(tape, (a, b), wrap(a.data + b.data), lambda g, tracked: (g, g))


def sub(a: Matrix, b: Matrix, tape: GradientTape | None = None) -> Matrix:
    _same_shape(a, b, "sub")
    return record(tape, (a, b), wrap(a.data - b.data), lambda g, tracked: (g, -g))


def mul(a: Matrix, b: Matrix, tape: GradientTape | None = None) -> Matrix:
    """Elementwise product."""
    _same_shape(a, b, "mul")

    def bwd(g, tracked):
        return (g * b.data if tracked[0] else None,
                g * a.data if tracked[1] else None)

    return record(tape, (a, b), wrap(a.data * b.data), bwd)


def scale(a: Matrix, c: float, tape: GradientTape | None = None) -> Matrix:
    return record(tape, (a,), wrap(a.data * c), lambda g, tracked: (g * c,))


def add_row(a: Matrix, bias: Matrix, tape: GradientTape | None = None) -> Matrix:
    """Add a 1 x cols bias row to every row of ``a``."""
    if bias.rows != 1 or bias.cols != a.cols:
        raise ValueError(f"add_row needs a 1x{a.cols} bias, got {bias.shape}")

    def bwd(g, tracked):
        return g, (g.sum(axis=0, keepdims=True) if tracked[1] else None)

    return record(tape, (a, bias), wrap(a.data + bias.data), bwd)


def relu(a: Matrix, tape: GradientTape | None = None) -> Matrix:
    mask = a.data > 0.0
    return record(tape, (a,), wrap(np.maximum(a.data, 0.0)), lambda g, tracked: (g * mask,))


def log(a: Matrix, tape: GradientTape | None = None) -> Matrix:
    """Natural log.  Base-2 values are obtained by scaling with 1/ln 2."""
    return record(tape, (a,), wrap(np.log(a.data)), lambda g, tracked: (g / a.data,))


def sum_all(a: Matrix, tape: GradientTape | None = None) -> Matrix:
    return record(tape, (a,), wrap(np.array([[a.data.sum()]])),
                  lambda g, tracked: (np.full(a.shape, g[0, 0]),))


def softmax_rows(m: Matrix, tape: GradientTape | None = None) -> Matrix:
    """Row-wise softmax with max-subtraction; each row sums to 1."""
    if m.cols < 1:
        raise ValueError("softmax_rows needs at least one column")
    shifted = m.data - m.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=1, keepdims=True)

    def bwd(g, tracked):
        dot = (g * s).sum(axis=1, keepdims=True)
        return (s * (g - dot),)

    return record(tape, (m,), wrap(s), bwd)


def log_softmax_rows(m: Matrix, tape: GradientTape | None = None) -> Matrix:
    """Row-wise log softmax, numerically stable."""
    shifted = m.data - m.data.max(axis=1, keepdims=True)
    ls = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))

    def bwd(g, tracked):
        return (g - np.exp(ls) * g.sum(axis=1, keepdims=True),)

    return record(tape, (m,), wrap(ls), bwd)


def lse_offdiag_rows(a: Matrix, tape: GradientTape | None = None) -> Matrix:
    """Row-wise log-sum-exp over the off-diagonal entries of a square matrix.

    Max-subtraction keeps the reduction stable and makes the single-term
    case (a 2x2 input) exact.  Used for pairwise-similarity denominators.
    """
    if a.rows != a.cols:
        raise ValueError(f"lse_offdiag_rows needs a square matrix, got {a.shape}")
    if a.rows < 2:
        raise ValueError("lse_offdiag_rows needs at least 2 rows")
    masked = a.data.copy()
    np.fill_diagonal(masked, -np.inf)
    m = masked.max(axis=1, keepdims=True)
    e = np.exp(masked - m)
    s = e.sum(axis=1, keepdims=True)
    lse = m + np.log(s)

    def bwd(g, tracked):
        return (g * (e / s),)   # the softmax weights, from the forward's exponentials

    return record(tape, (a,), wrap(lse), bwd)


def pair_bands(a: Matrix, tape: GradientTape | None = None) -> Matrix:
    """The entries (2b, 2b+1) and (2b+1, 2b) of an n x n matrix, n even, as
    a 2 x n/2 matrix: row 0 the upper band, row 1 the lower.  Used to read
    the positive pairs of interleaved two-view similarities."""
    n = a.rows
    if a.cols != n or n % 2 != 0:
        raise ValueError(f"pair_bands needs an even square matrix, got {a.shape}")
    stride = 2 * n + 2
    bands = np.stack((a.data.flat[1::stride], a.data.flat[n::stride]))

    def bwd(g, tracked):
        out = np.zeros((n, n), dtype=g.dtype)
        out.flat[1::stride] = g[0]
        out.flat[n::stride] = g[1]
        return (out,)

    return record(tape, (a,), wrap(bands), bwd)


def l2_normalize_rows(m: Matrix, tape: GradientTape | None = None) -> Matrix:
    """Rescale every row to unit Euclidean norm.

    Raises ``DegenerateEmbeddingError`` on a zero-norm row.  (Training does
    not raise there: the row turns NaN and the step's finiteness check names
    the contrastive term.)
    """
    norms = np.sqrt((m.data * m.data).sum(axis=1, keepdims=True))
    if np.any(norms == 0.0):
        bad = int(np.flatnonzero(norms[:, 0] == 0.0)[0])
        raise DegenerateEmbeddingError(f"row {bad} has zero norm and cannot be normalized")
    y = m.data / norms

    def bwd(g, tracked):
        dot = (g * y).sum(axis=1, keepdims=True)
        return ((g - y * dot) / norms,)

    return record(tape, (m,), wrap(y), bwd)


def two_part_mixmatch(x_inputs: np.ndarray, x_targets: np.ndarray, u_inputs: np.ndarray,
                      u_targets: np.ndarray, alpha: float, rng: np.random.Generator
                      ) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Shuffle the union of the labeled and unlabeled entries once, then mix
    the labeled entries against the shuffle's first rows and the unlabeled
    ones against the rest, in two ``mixup`` calls; each returns ``(inputs, targets)``."""
    n_x = len(x_inputs)
    w_inputs = np.vstack([x_inputs, u_inputs])
    w_targets = np.vstack([x_targets, u_targets])
    perm = rng.permutation(len(w_inputs))
    w_inputs, w_targets = w_inputs[perm], w_targets[perm]
    mixed_x = mixup(x_inputs, x_targets, w_inputs[:n_x], w_targets[:n_x], alpha, rng)
    mixed_u = mixup(u_inputs, u_targets, w_inputs[n_x:], w_targets[n_x:], alpha, rng)
    return mixed_x, mixed_u
