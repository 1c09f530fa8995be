"""Dense 2-D float64 arrays with reverse-mode gradients and SGD.

A ``GradientTape`` records each operation applied to a watched parameter
(or to anything derived from one) and replays the records in exact
reverse order on ``backward``.  Operations go on the tape through
:func:`record`.  Training records a whole forward pass or a whole loss
term as one entry whose backward returns all of its gradients at once
(``model``, ``training``); only ``concat_rows`` and ``matmul`` are kept
here as single operations.  The small primitives those fused entries
replaced live beside the tests (``tests/reference_ops.py``), which hold
the fused path to them bit for bit.

Reductions rely on numpy's fixed reduction order, so identical inputs
produce bit-identical outputs across runs.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

__all__ = [
    "Matrix", "wrap", "GradientTape", "record", "backward", "matmul", "concat_rows",
    "OptimizerState", "sgd_step", "ShapeMismatchError", "TapeUsageError",
]


class ShapeMismatchError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class TapeUsageError(RuntimeError):
    """The gradient tape was used outside its single forward/backward cycle."""


class Matrix:
    """A rows x cols float64 matrix, stored row-major.

    ``Matrix(values)`` copies and rejects non-finite values, for what enters
    from outside a training step; a step wraps its own arrays (:func:`wrap`).
    Operations return new matrices; identity hashing lets them key gradient dicts.
    """

    __slots__ = ("data",)

    def __init__(self, values):
        arr = np.array(values, dtype=np.float64, order="C")
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2:
            raise ShapeMismatchError(f"expected 1-D or 2-D input, got ndim={arr.ndim}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("matrix values must be finite")
        self.data = arr

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return wrap(np.zeros((rows, cols)))

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def copy(self) -> "Matrix":
        return wrap(self.data.copy())

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeMismatchError(f"item() needs a 1x1 matrix, got {self.shape}")
        return float(self.data[0, 0])

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols})"


def wrap(arr: np.ndarray) -> Matrix:
    """Build a Matrix around an array the caller owns: no copy, no finiteness scan."""
    m = Matrix.__new__(Matrix)
    m.data = np.ascontiguousarray(arr, dtype=np.float64)
    return m


class GradientTape:
    """Ordered record of operations plus gradient accumulators.

    Single-writer: one forward recording followed by one backward replay.
    The tape holds strong references to every tracked matrix, so identity
    keys stay valid for its whole lifetime.  ``backward`` drops the records
    it replayed, which frees their closures and the arrays they hold.
    """

    def __init__(self):
        self._records: list[tuple[Matrix, Callable[[np.ndarray], Iterable[tuple[Matrix, np.ndarray]]]]] = []
        self._num_records = 0
        self._tracked: dict[int, Matrix] = {}
        self._watched: list[Matrix] = []
        self._consumed = False

    def watch(self, m: Matrix) -> None:
        if self._consumed:
            raise TapeUsageError("cannot watch parameters on a consumed tape")
        if id(m) not in self._tracked:
            self._tracked[id(m)] = m
            self._watched.append(m)

    def tracks(self, m: Matrix) -> bool:
        return id(m) in self._tracked

    def _record(self, out: Matrix, backward_fn) -> None:
        self._tracked[id(out)] = out
        self._records.append((out, backward_fn))
        self._num_records += 1

    @property
    def num_records(self) -> int:
        """Operations recorded so far; still counted after ``backward``."""
        return self._num_records


def record(tape: GradientTape | None, inputs: tuple[Matrix, ...], out: Matrix,
           backward_fn: Callable[[np.ndarray, tuple[bool, ...]], Iterable[np.ndarray | None]]) -> Matrix:
    """Record an operation as one tape entry and return ``out``.

    The one way onto the tape: the fused forwards and loss terms of
    ``model`` and ``training``, ``concat_rows`` and ``matmul`` here, and the
    reference primitives of the tests all record through it.
    ``backward_fn(g, tracked)`` receives the gradient of ``out`` and, per
    entry of ``inputs``, whether that input is on the tape.  It returns one
    gradient per input, in order; entries for untracked inputs are ignored
    and may be None.  Nothing is recorded when no input is tracked.
    """
    if tape is None:
        return out
    tracked = tuple([id(x) in tape._tracked for x in inputs])
    if any(tracked):
        def bwd(g):
            return [(x, gx) for x, gx, t in zip(inputs, backward_fn(g, tracked), tracked) if t]
        tape._record(out, bwd)
    return out


def backward(tape: GradientTape, loss: Matrix) -> dict[Matrix, Matrix]:
    """Replay the tape in reverse and return gradients for watched parameters.

    ``loss`` must be the tracked 1x1 result of the recorded forward pass.
    The tape is consumed: a second backward raises ``TapeUsageError``.
    A gradient may be the very array a backward closure returned, so
    callers read the gradients and never write into them.
    """
    if tape._consumed:
        raise TapeUsageError("tape already consumed by a previous backward")
    if not tape._records:
        raise TapeUsageError("backward on an empty tape: no operations were recorded")
    if loss.shape != (1, 1):
        raise ShapeMismatchError(f"loss must be 1x1, got {loss.shape}")
    if not tape.tracks(loss):
        raise TapeUsageError("loss was not produced by operations recorded on this tape")

    # A contribution is kept as returned; an input's second one makes a sum
    # backward owns, and later ones add into that.  So no array a closure
    # returned is ever written, and a lone contribution is never copied.
    grads: dict[int, np.ndarray] = {id(loss): np.ones((1, 1))}
    owned: set[int] = set()
    for out, backward_fn in reversed(tape._records):
        g = grads.get(id(out))
        if g is None:
            continue
        for inp, contrib in backward_fn(g):
            key = id(inp)
            acc = grads.get(key)
            if acc is None:
                grads[key] = contrib
            elif key in owned:
                acc += contrib
            else:
                grads[key] = acc + contrib
                owned.add(key)
    tape._consumed = True
    tape._records.clear()

    out_grads: dict[Matrix, Matrix] = {}
    for p in tape._watched:
        g = grads.get(id(p))
        out_grads[p] = wrap(g) if g is not None else Matrix.zeros(p.rows, p.cols)
    return out_grads


# ---------------------------------------------------------------------------
# single operations


def matmul(a: Matrix, b: Matrix, tape: GradientTape | None = None) -> Matrix:
    """Standard matrix product a @ b, as one tape record.

    Training multiplies inside its fused records; this stands for the
    product in the tests' reference chains, and ``bench/tracer.py`` counts
    its calls.
    """
    if a.cols != b.rows:
        raise ShapeMismatchError(f"matmul shapes do not align: {a.shape} @ {b.shape}")

    def bwd(g, tracked):
        return (g @ b.data.T if tracked[0] else None,
                a.data.T @ g if tracked[1] else None)

    return record(tape, (a, b), wrap(a.data @ b.data), bwd)


def concat_rows(a: Matrix, b: Matrix, tape: GradientTape | None = None) -> Matrix:
    if a.cols != b.cols:
        raise ShapeMismatchError(f"concat_rows column counts differ: {a.shape} vs {b.shape}")
    na = a.rows
    return record(tape, (a, b), wrap(np.vstack([a.data, b.data])),
                  lambda g, tracked: (g[:na], g[na:]))


# ---------------------------------------------------------------------------
# optimizer


class OptimizerState:
    """SGD with momentum and coupled weight decay.

    The update is the classical form: weight decay is added to the raw
    gradient before the momentum accumulation,

        v <- momentum * v + grad + weight_decay * param
        param <- param - lr * v

    Switching to decoupled decay would mean moving the decay term out of
    the velocity update and into the parameter step.
    """

    def __init__(self, learning_rate: float, momentum: float = 0.9, weight_decay: float = 0.0):
        if learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {learning_rate}")
        self.learning_rate = float(learning_rate)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self.velocity: dict[str, np.ndarray] = {}


def sgd_step(state: OptimizerState, params: dict[str, Matrix], grads: dict[str, Matrix]) -> dict[str, Matrix]:
    """One SGD-with-momentum step; returns the updated parameter dict.

    Velocities update in place.  Parameters get new matrices and are never
    written, so identity-keyed caches (the softmax memo) see every update."""
    updated: dict[str, Matrix] = {}
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ShapeMismatchError(f"gradient shape {g.shape} != parameter shape {p.shape} for '{name}'")
        v = state.velocity.get(name)
        if v is None:
            v = state.velocity[name] = np.zeros(p.shape)
        v *= state.momentum
        v += g.data
        v += state.weight_decay * p.data
        step = state.learning_rate * v
        updated[name] = wrap(np.subtract(p.data, step, out=step))
    return updated
