"""Dense 2-D float32 arrays with reverse-mode gradients and SGD.

The program trains in ``DTYPE`` (float32, the default of the PyTorch code
the method comes from).  ``Matrix(values)`` rounds to it once; every other
operation here keeps the dtype of its operands, so a network and a batch
made in float64 run through the same functions in float64 (the gradient
checks do), and no float64 operand reaches a float32 product.

A ``GradientTape`` records each operation applied to a watched parameter
(or to anything derived from one) and replays the records in exact
reverse order on ``backward``.  Operations go on the tape through
:func:`record`.  Training records a whole forward pass or a whole loss
term as one entry whose backward returns all of its gradients at once
(``model``, ``training``); only ``concat_rows`` and ``matmul`` are kept
here as single operations.  The small primitives those fused entries
replaced live beside the tests (``tests/reference_ops.py``), which hold
the fused path to them bit for bit.

``sgd_step`` updates one array.  A training step packs every parameter
it trains and their gradients into one row each and makes one call
against the network's velocity row (``training._sgd_steps``);
elementwise, that is the update of each matrix on its own, bit for bit.

Reductions rely on numpy's fixed reduction order, so identical inputs
produce bit-identical outputs across runs.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

# the dtype the program trains in: parameters, batches, targets and gradients
DTYPE = np.dtype(np.float32)

__all__ = [
    "DTYPE", "Matrix", "to_dtype", "wrap", "GradientTape", "record", "backward", "matmul",
    "concat_rows", "sgd_step",
]


class Matrix:
    """A rows x cols matrix, stored row-major: what a network reads and the tape records.

    ``Matrix(values)`` copies into ``DTYPE`` and rejects non-finite values and
    values that overflow ``DTYPE``, for values a caller's arguments can make
    so (a generated dataset); arrays the program made or has already scanned
    are wrapped (:func:`wrap`), in the dtype they have.
    Operations return new matrices; identity hashing lets them key gradient dicts.
    """

    __slots__ = ("data",)

    def __init__(self, values):
        arr = np.array(values, dtype=np.float64, order="C")
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2:
            raise ValueError(f"expected 1-D or 2-D input, got ndim={arr.ndim}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("matrix values must be finite")
        self.data = to_dtype(arr)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return wrap(np.zeros((rows, cols), dtype=DTYPE))

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() needs a 1x1 matrix, got {self.shape}")
        return float(self.data[0, 0])

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols})"


def to_dtype(arr: np.ndarray, first_row: int = 0) -> np.ndarray:
    """The finite 2-D array ``arr`` rounded to ``DTYPE``.  A value that overflows
    ``DTYPE`` is refused by a ``ValueError`` naming it and its row, counted
    from ``first_row``."""
    with np.errstate(over="ignore"):
        out = np.asarray(arr, dtype=DTYPE)
    if not np.isfinite(out).all():
        row, col = np.argwhere(~np.isfinite(out))[0]
        raise ValueError(f"row {first_row + row}: value {float(arr[row, col])!r} "
                         f"overflows {DTYPE.name}")
    return out


def wrap(arr: np.ndarray) -> Matrix:
    """Build a Matrix around an array the caller owns: no copy, no finiteness
    scan, and its dtype kept."""
    m = Matrix.__new__(Matrix)
    m.data = np.ascontiguousarray(arr)
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
            raise RuntimeError("cannot watch parameters on a consumed tape")
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


def backward(tape: GradientTape, loss: Matrix) -> dict[Matrix, np.ndarray]:
    """Replay the tape in reverse and return each watched parameter's gradient array.

    ``loss`` must be the tracked 1x1 result of the recorded forward pass.
    The tape is consumed: a second backward raises ``RuntimeError``.
    A gradient may be the very array a backward closure returned, so
    callers read the gradients and never write into them.
    """
    if tape._consumed:
        raise RuntimeError("tape already consumed by a previous backward")
    if not tape._records:
        raise RuntimeError("backward on an empty tape: no operations were recorded")
    if loss.shape != (1, 1):
        raise ValueError(f"loss must be 1x1, got {loss.shape}")
    if not tape.tracks(loss):
        raise RuntimeError("loss was not produced by operations recorded on this tape")

    # A contribution is kept as returned; an input's second one makes a sum
    # backward owns, and later ones add into that.  So no array a closure
    # returned is ever written, and a lone contribution is never copied.
    grads: dict[int, np.ndarray] = {id(loss): np.ones((1, 1), dtype=loss.data.dtype)}
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

    return {p: grads[id(p)] if id(p) in grads else np.zeros(p.shape, dtype=p.data.dtype)
            for p in tape._watched}


# ---------------------------------------------------------------------------
# single operations


def matmul(a: Matrix, b: Matrix, tape: GradientTape | None = None) -> Matrix:
    """Standard matrix product a @ b, as one tape record.

    Training multiplies inside its fused records; this stands for the
    product in the tests' reference chains, and ``bench/tracer.py`` counts
    its calls.
    """
    if a.cols != b.rows:
        raise ValueError(f"matmul shapes do not align: {a.shape} @ {b.shape}")

    def bwd(g, tracked):
        return (g @ b.data.T if tracked[0] else None,
                a.data.T @ g if tracked[1] else None)

    return record(tape, (a, b), wrap(a.data @ b.data), bwd)


def concat_rows(a: Matrix, b: Matrix, tape: GradientTape | None = None) -> Matrix:
    if a.cols != b.cols:
        raise ValueError(f"concat_rows column counts differ: {a.shape} vs {b.shape}")
    na = a.rows
    return record(tape, (a, b), wrap(np.vstack([a.data, b.data])),
                  lambda g, tracked: (g[:na], g[na:]))


# ---------------------------------------------------------------------------
# optimizer


def sgd_step(p: np.ndarray, g: np.ndarray, v: np.ndarray, learning_rate: float,
             momentum: float, weight_decay: float) -> np.ndarray:
    """One SGD-with-momentum step of one array; returns the updated parameter.

    The update is the classical form with coupled weight decay: the decay
    term is added to the raw gradient before the momentum accumulation,

        v <- momentum * v + grad + weight_decay * param
        param <- param - lr * v

    Switching to decoupled decay would mean moving the decay term out of
    the velocity update and into the parameter step.  The velocity ``v``
    updates in place.  ``p`` is never written: the update is a new array,
    because no training step writes into an array it was given
    (``tests/test_inplace.py``).  Training steps all its parameters at once
    by packing them and their gradients into one row each, against the
    network's velocity row."""
    if g.shape != p.shape or v.shape != p.shape:
        raise ValueError(f"gradient {g.shape} and velocity {v.shape} "
                                 f"must match parameter {p.shape}")
    v *= momentum
    v += g
    v += weight_decay * p
    step = learning_rate * v
    return np.subtract(p, step, out=step)
