"""Twin two-hidden-layer networks with classifier and projection heads.

Each network owns three parameter groups: the feature extractor (theta),
a linear classifier head (phi), and a linear projection head (psi) whose
output rows are L2-normalized.  The two networks share an architecture
but never share parameters.

``init_network`` makes the parameters in ``kernel.DTYPE``; the forward
passes compute in the dtype of their parameters and input, so a network
whose parameters are float64 arrays evaluates and trains in float64.
"""

from __future__ import annotations

import functools
import json
import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from . import kernel
from .data import MAX_SEED, _check_number, atomic_open, check_settings, setting
from .kernel import GradientTape, Matrix

THETA = ("w1", "b1", "w2", "b2")
PHI = ("wc", "bc")
PSI = ("wp", "bp")
ALL_GROUPS = THETA + PHI + PSI

# forward_softmax evaluates its input in blocks of this many rows
_EVAL_BLOCK_ROWS = 1024

_CHECKPOINT_MAGIC = b"TWINNET1"
_CHECKPOINT_VERSION = 3   # 2 added the dtype (1 held float64 rows); both listed each tensor's shape
_BLOB_DTYPE = kernel.DTYPE.newbyteorder("<")
_S_INIT = 401   # substream tag of init_network's generator


@dataclass(frozen=True)
class Arch:
    """Dimensions that fully determine every parameter shape (``layout`` states them)."""

    in_dim: int = setting(kind=int, lo=1)
    hidden: int = setting(kind=int, lo=1)
    num_classes: int = setting(kind=int, lo=1)
    embed_dim: int = setting(kind=int, lo=1)

    def __post_init__(self):
        check_settings(self)


@functools.lru_cache(maxsize=None)
def layout(arch: Arch) -> tuple[tuple[str, slice, tuple[int, int]], ...]:
    """Where each parameter lies in a row packing all eight, in ``ALL_GROUPS``
    order: (name, part of the row, shape).  Theta and phi come first, so
    their row is a prefix of the whole one."""
    h, parts, start = arch.hidden, [], 0
    shapes = dict(w1=(arch.in_dim, h), b1=(1, h), w2=(h, h), b2=(1, h),
                  wc=(h, arch.num_classes), bc=(1, arch.num_classes),
                  wp=(h, arch.embed_dim), bp=(1, arch.embed_dim))
    for name in ALL_GROUPS:
        rows, cols = shapes[name]
        parts.append((name, slice(start, start + rows * cols), (rows, cols)))
        start += rows * cols
    return tuple(parts)


@dataclass
class NetworkParams:
    arch: Arch
    seed: int
    params: dict[str, Matrix]
    # SGD velocities, one row laid out by layout(arch); steps update it in place
    velocity: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):   # in the parameters' dtype
        self.velocity = np.zeros(layout(self.arch)[-1][1].stop,
                                 dtype=self.params[ALL_GROUPS[0]].data.dtype)


@dataclass
class TwinNetworks:
    net1: NetworkParams
    net2: NetworkParams

    def __post_init__(self):
        if self.net1.arch != self.net2.arch:
            raise ValueError(f"twin networks must share one arch, got {self.net1.arch} "
                             f"and {self.net2.arch}")


def init_network(arch: Arch, seed: int) -> NetworkParams:
    """Scaled-uniform fan-in initialization for weights; zero biases; all in
    ``kernel.DTYPE`` (the weights are float64 draws, rounded once).

    ``seed`` is an int in [0, 2 * MAX_SEED + 2], the range ``init_twins`` derives."""
    seed = _check_number("seed", seed, int, 0, 2 * MAX_SEED + 2)
    rng = np.random.default_rng([seed, _S_INIT])
    params: dict[str, Matrix] = {}
    for name, _, (rows, cols) in layout(arch):
        if name.startswith("b"):
            params[name] = Matrix.zeros(rows, cols)
        else:
            bound = 1.0 / np.sqrt(rows)
            params[name] = kernel.wrap(
                rng.uniform(-bound, bound, size=(rows, cols)).astype(kernel.DTYPE))
    return NetworkParams(arch=arch, seed=seed, params=params)


def init_twins(arch: Arch, seed: int) -> TwinNetworks:
    return TwinNetworks(init_network(arch, seed * 2 + 1), init_network(arch, seed * 2 + 2))


def _check_input(net: NetworkParams, x: Matrix) -> None:
    if x.cols != net.arch.in_dim:
        raise ValueError(f"input has {x.cols} columns, network expects {net.arch.in_dim}")


def _hidden(xa: np.ndarray, w1, b1, w2, b2, h1=None, h=None) -> tuple[np.ndarray, np.ndarray]:
    """Both ReLU layers of ``xa``: the activations ``h1`` and ``h``, written
    into the given arrays, or into new ones where none is given."""
    h1 = np.matmul(xa, w1, out=h1)
    h1 += b1
    np.maximum(h1, 0.0, out=h1)
    h = np.matmul(h1, w2, out=h)
    h += b2
    np.maximum(h, 0.0, out=h)
    return h1, h


def _head_forward(net: NetworkParams, x: Matrix, tape: GradientTape | None,
                  head: tuple[str, str], finish=None) -> Matrix:
    """Both ReLU layers and one linear head, taped as one fused operation.

    The backward closure replays, operation for operation, the backward
    of the primitive chain (matmul, add_row, relu, ..., add_row) that this
    function replaces, so every gradient is bit-identical to it.  Only
    arrays this call allocates are written in place, and the hidden
    activations are new arrays on every call, because the closure keeps
    them until the backward (``forward_softmax``'s workspace is never used
    here).  ``finish`` maps the head's output to the final one and returns
    it with a function that turns the final output's gradient into the head's.
    """
    _check_input(net, x)
    inputs = (x,) + tuple(net.params[n] for n in THETA + head)
    xa, w1, b1, w2, b2, wh, bh = (m.data for m in inputs)
    h1, h = _hidden(xa, w1, b1, w2, b2)
    out = h @ wh
    out += bh
    finish_grad = None
    if finish is not None:
        out, finish_grad = finish(out)

    def bwd(g, tracked):
        if finish_grad is not None:
            g = finish_grad(g)
        gbh = g.sum(axis=0, keepdims=True)
        gwh = h.T @ g
        g = g @ wh.T
        g *= h > 0.0            # the mask of the pre-activation, NaN included
        gb2 = g.sum(axis=0, keepdims=True)
        gw2 = h1.T @ g
        g = g @ w2.T
        g *= h1 > 0.0
        gb1 = g.sum(axis=0, keepdims=True)
        gw1 = xa.T @ g
        gx = g @ w1.T if tracked[0] else None
        return gx, gw1, gb1, gw2, gb2, gwh, gbh

    return kernel.record(tape, inputs, kernel.wrap(out), bwd)


def forward_logits(net: NetworkParams, x: Matrix, tape: GradientTape | None = None) -> Matrix:
    return _head_forward(net, x, tape, PHI)


def softmax_in_place(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax written over ``z``, which the caller owns; the operations
    of the reference ``softmax_rows`` (``tests/reference_ops.py``) in its
    order, so the bits are the same."""
    z -= z.max(axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    return z


@functools.lru_cache(maxsize=2)
def _eval_workspace(hidden: int, dtype: np.dtype) -> tuple[np.ndarray, np.ndarray]:
    """Two ``_EVAL_BLOCK_ROWS`` x ``hidden`` arrays that ``forward_softmax``
    writes each block's hidden activations into; one pair per hidden width
    and dtype.  Shared by every evaluation in the process, so not for
    concurrent calls from several threads (the program evaluates in one thread)."""
    return (np.empty((_EVAL_BLOCK_ROWS, hidden), dtype=dtype),
            np.empty((_EVAL_BLOCK_ROWS, hidden), dtype=dtype))


def forward_softmax(net: NetworkParams, x: Matrix) -> np.ndarray:
    """Class probabilities, a read-only array in the dtype the input and the
    parameters compute in; evaluation only, never recorded on a tape.

    The input is evaluated in blocks of ``_EVAL_BLOCK_ROWS`` rows.  Each
    block's two hidden activations go into the leading rows of a workspace
    kept for the hidden width, so repeated passes allocate no activations,
    and its logits go straight into its rows of the new output array, where
    the softmax is taken in place; the array is then made read-only, and
    nothing returned aliases the workspace.  The products, bias adds and
    ReLUs are those of an untaped ``forward_logits`` of the block, so the
    bits are the same.  Blocks may round differently from one tall product;
    README's determinism notes say where they match.
    """
    _check_input(net, x)
    w1, b1, w2, b2, wc, bc = (net.params[n].data for n in THETA + PHI)
    dtype = np.result_type(x.data, w1)
    ws1, ws2 = _eval_workspace(w1.shape[1], dtype)
    probs = np.empty((x.rows, net.arch.num_classes), dtype=dtype)
    for start in range(0, x.rows, _EVAL_BLOCK_ROWS):
        xb = x.data[start:start + _EVAL_BLOCK_ROWS]
        n = xb.shape[0]
        _, h = _hidden(xb, w1, b1, w2, b2, ws1[:n], ws2[:n])
        logits = np.matmul(h, wc, out=probs[start:start + n])
        logits += bc
        softmax_in_place(logits)
    probs.flags.writeable = False
    return probs


def _l2_normalize(z: np.ndarray):
    """Normalize the rows of ``z`` in place (the caller owns it)."""
    norms = np.sqrt((z * z).sum(axis=1, keepdims=True))
    z /= norms

    def grad(g):
        dot = (g * z).sum(axis=1, keepdims=True)
        gz = z * dot
        np.subtract(g, gz, out=gz)
        gz /= norms
        return gz
    return z, grad


def forward_projection(net: NetworkParams, x: Matrix, tape: GradientTape | None = None) -> Matrix:
    """Unit-norm embedding rows from the projection head.

    A zero-norm row (a collapsed projection) comes out NaN; the training
    step's finiteness check then stops the run naming the contrastive term.
    """
    return _head_forward(net, x, tape, PSI, finish=_l2_normalize)


def ensemble_softmax(s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
    """Two softmaxes' mean as a read-only array; a non-finite one stops here."""
    out = (s1 + s2) / 2.0
    if not np.isfinite(out).all():
        raise ValueError("ensemble_softmax: the mean of the two softmaxes is not finite")
    out.flags.writeable = False
    return out


# ---------------------------------------------------------------------------
# checkpoints: magic, version, JSON header, raw little-endian blobs of the
# training dtype, which the header names


def save_checkpoint(twins: TwinNetworks, path: str) -> None:
    """Write ``twins`` to ``path``, every parameter in ``kernel.DTYPE``, which the
    header names; a ``ValueError`` naming the network and the tensor refuses
    parameters that disagree with ``layout(arch)``, before any byte is written."""
    arch = twins.net1.arch
    declared = {name: shape for name, _, shape in layout(arch)}
    for net_id, net in ((1, twins.net1), (2, twins.net2)):
        held = {name: m.shape for name, m in net.params.items()}
        for name in [*declared, *sorted(held.keys() - declared.keys())]:
            if held.get(name) != declared.get(name):
                raise ValueError(f"{path}: tensor {name!r} of net {net_id} is "
                                 f"{held.get(name, 'missing')}, but arch {asdict(arch)} "
                                 f"declares {declared.get(name, 'no such tensor')}")
    header = {"version": _CHECKPOINT_VERSION, "dtype": _BLOB_DTYPE.str, "arch": asdict(arch),
              "seeds": [twins.net1.seed, twins.net2.seed]}
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with atomic_open(path, "wb") as f:
        f.write(_CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", len(header_bytes)))
        f.write(header_bytes)
        for net in (twins.net1, twins.net2):
            for name in ALL_GROUPS:
                f.write(np.ascontiguousarray(net.params[name].data, dtype=_BLOB_DTYPE).tobytes())


def load_checkpoint(path: str) -> TwinNetworks:
    """The twin networks of a checkpoint ``save_checkpoint`` wrote.  Each
    network's parameters are read-only views of one packed row, laid out by
    ``layout``; a ``ValueError`` that starts with the path refuses anything else."""
    with open(path, "rb") as f:
        raw = f.read()
    header_start = len(_CHECKPOINT_MAGIC) + 4
    if not raw.startswith(_CHECKPOINT_MAGIC) or len(raw) < header_start:
        raise ValueError(f"{path} is not a twin-network checkpoint")
    (header_len,) = struct.unpack_from("<I", raw, len(_CHECKPOINT_MAGIC))
    rows_start = header_start + header_len
    if len(raw) < rows_start:
        raise ValueError(f"{path}: header cut short: "
                         f"{len(raw) - header_start} of {header_len} bytes")
    try:
        header = json.loads(raw[header_start:rows_start].decode("utf-8"))
    except ValueError as exc:   # UnicodeDecodeError or JSONDecodeError
        raise ValueError(f"{path}: the header is not UTF-8 JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise ValueError(f"{path}: the header is not a JSON object")
    missing = [k for k in ("version", "dtype", "arch", "seeds") if k not in header]
    if missing:
        raise ValueError(f"{path}: the header lacks {missing[0]!r}")
    if json.dumps(header["version"]) != str(_CHECKPOINT_VERSION):
        raise ValueError(f"{path}: unsupported checkpoint version {header['version']!r}")
    if header["dtype"] != _BLOB_DTYPE.str:
        raise ValueError(f"{path}: unsupported tensor dtype {header['dtype']!r}, "
                         f"expected {_BLOB_DTYPE.str!r}")
    seeds = header["seeds"]
    if not (isinstance(seeds, list) and len(seeds) == 2):
        raise ValueError(f"{path}: 'seeds' must hold exactly two integers, got {seeds!r}")
    try:
        arch = Arch(**header["arch"])
    except (TypeError, ValueError) as exc:   # not a mapping, a key missing or unknown, a bad value
        raise ValueError(f"{path}: arch.{exc}") from exc
    try:
        seeds = [_check_number("seed", s, int, 0, 2 * MAX_SEED + 2) for s in seeds]
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    row_len = layout(arch)[-1][1].stop
    row_bytes = _BLOB_DTYPE.itemsize * row_len
    if len(raw) - rows_start != 2 * row_bytes:
        raise ValueError(f"{path}: {len(raw) - rows_start} bytes of tensor data, "
                         f"but the header declares {2 * row_bytes}")
    nets = []
    for net_id, seed in zip((1, 2), seeds):
        row = np.frombuffer(raw, dtype=_BLOB_DTYPE, count=row_len,
                            offset=rows_start + row_bytes * (net_id - 1))
        bad = [name for name, part, _ in layout(arch) if not np.isfinite(row[part]).all()]
        if bad:
            raise ValueError(f"{path}: tensor {bad[0]!r} of net {net_id} holds a non-finite value")
        nets.append(NetworkParams(arch=arch, seed=seed, params={
            name: kernel.wrap(row[part].reshape(shape)) for name, part, shape in layout(arch)}))
    return TwinNetworks(*nets)
