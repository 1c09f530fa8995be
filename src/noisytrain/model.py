"""Twin two-hidden-layer networks with classifier and projection heads.

Each network owns three parameter groups: the feature extractor (theta),
a linear classifier head (phi), and a linear projection head (psi) whose
output rows are L2-normalized.  The two networks share an architecture
but never share parameters.
"""

from __future__ import annotations

import functools
import json
import struct
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import kernel
from .data import MAX_SEED, _check_number, atomic_open, check_settings, setting
from .kernel import GradientTape, Matrix, ShapeMismatchError

THETA = ("w1", "b1", "w2", "b2")
PHI = ("wc", "bc")
PSI = ("wp", "bp")
ALL_GROUPS = THETA + PHI + PSI

_SOFTMAX_MEMO_SIZE = 2
# forward_softmax evaluates its input in blocks of this many rows
_EVAL_BLOCK_ROWS = 1024

_CHECKPOINT_MAGIC = b"TWINNET1"
_S_INIT = 401   # substream tag of init_network's generator


@dataclass(frozen=True)
class Arch:
    """Dimensions that fully determine every parameter shape."""

    in_dim: int = setting(kind=int, lo=1)
    hidden: int = setting(kind=int, lo=1)
    num_classes: int = setting(kind=int, lo=1)
    embed_dim: int = setting(kind=int, lo=1)

    def __post_init__(self):
        check_settings(self)

    def param_shapes(self) -> dict[str, tuple[int, int]]:
        return {
            "w1": (self.in_dim, self.hidden),
            "b1": (1, self.hidden),
            "w2": (self.hidden, self.hidden),
            "b2": (1, self.hidden),
            "wc": (self.hidden, self.num_classes),
            "bc": (1, self.num_classes),
            "wp": (self.hidden, self.embed_dim),
            "bp": (1, self.embed_dim),
        }


@functools.lru_cache(maxsize=None)
def layout(arch: Arch) -> tuple[tuple[str, slice, tuple[int, int]], ...]:
    """Where each parameter lies in a row packing all eight, in ``ALL_GROUPS``
    order: (name, part of the row, shape).  Theta and phi come first, so
    their row is a prefix of the whole one."""
    parts, start = [], 0
    for name, (rows, cols) in arch.param_shapes().items():
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
    # (features, parameter matrices, softmax) entries; see dataset_softmax
    softmax_memo: list = field(default_factory=list, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.velocity = np.zeros(layout(self.arch)[-1][1].stop)


@dataclass
class TwinNetworks:
    net1: NetworkParams
    net2: NetworkParams


def init_network(arch: Arch, seed: int) -> NetworkParams:
    """Scaled-uniform fan-in initialization for weights; zero biases.

    ``seed`` is an int in [0, 2 * MAX_SEED + 2], the range ``init_twins`` derives."""
    seed = _check_number("seed", seed, int, 0, 2 * MAX_SEED + 2)
    rng = np.random.default_rng([seed, _S_INIT])
    params: dict[str, Matrix] = {}
    for name, (rows, cols) in arch.param_shapes().items():
        if name.startswith("b"):
            params[name] = Matrix.zeros(rows, cols)
        else:
            bound = 1.0 / np.sqrt(rows)
            params[name] = Matrix(rng.uniform(-bound, bound, size=(rows, cols)))
    return NetworkParams(arch=arch, seed=seed, params=params)


def init_twins(arch: Arch, seed: int) -> TwinNetworks:
    return TwinNetworks(init_network(arch, seed * 2 + 1), init_network(arch, seed * 2 + 2))


def _check_input(net: NetworkParams, x: Matrix) -> None:
    if x.cols != net.arch.in_dim:
        raise ShapeMismatchError(f"input has {x.cols} columns, network expects {net.arch.in_dim}")


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
    if tape is None:
        return kernel.wrap(out)

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
def _eval_workspace(hidden: int) -> tuple[np.ndarray, np.ndarray]:
    """Two ``_EVAL_BLOCK_ROWS`` x ``hidden`` arrays that ``forward_softmax``
    writes each block's hidden activations into; one pair per hidden width.
    Shared by every evaluation in the process, so not for concurrent calls
    from several threads (the program evaluates in one thread)."""
    return np.empty((_EVAL_BLOCK_ROWS, hidden)), np.empty((_EVAL_BLOCK_ROWS, hidden))


def forward_softmax(net: NetworkParams, x: Matrix) -> Matrix:
    """Class probabilities; evaluation only, never recorded on a tape.

    The input is evaluated in blocks of ``_EVAL_BLOCK_ROWS`` rows.  Each
    block's two hidden activations go into the leading rows of a workspace
    kept for the hidden width, so repeated passes allocate no activations,
    and its logits go straight into its rows of the new output array, where
    the softmax is taken in place.  Nothing returned aliases the workspace.
    The products, bias adds and ReLUs are those of an untaped
    ``forward_logits`` of the block, so the bits are the same.  Blocks may
    round differently from one tall product; README's determinism notes say
    where they match.
    """
    _check_input(net, x)
    w1, b1, w2, b2, wc, bc = (net.params[n].data for n in THETA + PHI)
    ws1, ws2 = _eval_workspace(w1.shape[1])
    probs = np.empty((x.rows, net.arch.num_classes))
    for start in range(0, x.rows, _EVAL_BLOCK_ROWS):
        xb = x.data[start:start + _EVAL_BLOCK_ROWS]
        n = xb.shape[0]
        _, h = _hidden(xb, w1, b1, w2, b2, ws1[:n], ws2[:n])
        logits = np.matmul(h, wc, out=probs[start:start + n])
        logits += bc
        softmax_in_place(logits)
    return kernel.wrap(probs)


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


def dataset_softmax(net: NetworkParams, features: Matrix) -> Matrix:
    """``forward_softmax`` over a whole dataset, remembered on the network.

    A remembered result is reused only for the same ``features`` object
    and the very same parameter matrices, compared by identity.  Training
    replaces parameters with new matrices rather than writing into them,
    so any update misses.  The memo keeps the last ``_SOFTMAX_MEMO_SIZE``
    results (the train and test sets), and the arrays it hands out are
    read-only because every caller shares them.
    """
    params = tuple(net.params[n] for n in THETA + PHI)
    memo = net.softmax_memo
    for feats, used, probs in memo:
        if feats is features and all(a is b for a, b in zip(used, params)):
            return probs
    probs = forward_softmax(net, features)
    probs.data.flags.writeable = False
    memo.append((features, params, probs))
    del memo[:-_SOFTMAX_MEMO_SIZE]
    return probs


def ensemble_softmax(twins: TwinNetworks, x: Matrix) -> Matrix:
    """Elementwise mean of the two networks' softmax outputs."""
    s1 = dataset_softmax(twins.net1, x)
    s2 = dataset_softmax(twins.net2, x)
    return Matrix((s1.data + s2.data) / 2.0)


# ---------------------------------------------------------------------------
# checkpoints: magic, version, JSON header, raw little-endian float64 blobs


def save_checkpoint(twins: TwinNetworks, path: str) -> None:
    tensors = []
    blobs = []
    for net_id, net in ((1, twins.net1), (2, twins.net2)):
        for name in ALL_GROUPS:
            m = net.params[name]
            tensors.append({"net": net_id, "name": name, "rows": m.rows, "cols": m.cols})
            blobs.append(np.ascontiguousarray(m.data, dtype="<f8").tobytes())
    header = {"version": 1, "arch": asdict(twins.net1.arch),
              "seeds": [twins.net1.seed, twins.net2.seed], "tensors": tensors}
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with atomic_open(path, "wb") as f:
        f.write(_CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", len(header_bytes)))
        f.write(header_bytes)
        for blob in blobs:
            f.write(blob)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _header_problem(header) -> str | None:
    """What is missing or malformed in a checkpoint header, naming the key; None if nothing."""
    if not isinstance(header, dict):
        return "the header is not a JSON object"
    missing = [k for k in ("version", "arch", "seeds", "tensors") if k not in header]
    if missing:
        return f"the header lacks {missing[0]!r}"
    arch, seeds, tensors = header["arch"], header["seeds"], header["tensors"]
    if not (isinstance(arch, dict) and set(arch) == {f.name for f in fields(Arch)}
            and all(map(_is_int, arch.values()))):
        return f"'arch' must map exactly the Arch fields to integers, got {arch!r}"
    if not (isinstance(seeds, list) and len(seeds) == 2 and all(map(_is_int, seeds))):
        return f"'seeds' must hold exactly two integers, got {seeds!r}"
    if not all(0 <= s <= 2 * MAX_SEED + 2 for s in seeds):
        return f"'seeds' must lie in [0, {2 * MAX_SEED + 2}], got {seeds!r}"
    if not (isinstance(tensors, list) and all(
            isinstance(t, dict) and isinstance(t.get("name"), str)
            and all(_is_int(t.get(k)) for k in ("net", "rows", "cols")) for t in tensors)):
        return "'tensors' must be a list of objects with integer net, rows and cols and a string name"
    return None


def load_checkpoint(path: str) -> TwinNetworks:
    with open(path, "rb") as f:
        raw = f.read()
    header_start = len(_CHECKPOINT_MAGIC) + 4
    if not raw.startswith(_CHECKPOINT_MAGIC) or len(raw) < header_start:
        raise ValueError(f"{path} is not a twin-network checkpoint")
    (header_len,) = struct.unpack_from("<I", raw, len(_CHECKPOINT_MAGIC))
    tensors_start = header_start + header_len
    if len(raw) < tensors_start:
        raise ValueError(f"{path}: header cut short: "
                         f"{len(raw) - header_start} of {header_len} bytes")
    try:
        header = json.loads(raw[header_start:tensors_start].decode("utf-8"))
    except ValueError as exc:   # UnicodeDecodeError or JSONDecodeError
        raise ValueError(f"{path}: the header is not UTF-8 JSON: {exc}") from exc
    problem = _header_problem(header)
    if problem is not None:
        raise ValueError(f"{path}: {problem}")
    if not (_is_int(header["version"]) and header["version"] == 1):
        raise ValueError(f"{path}: unsupported checkpoint version {header['version']!r}")
    declared = 8 * sum(t["rows"] * t["cols"] for t in header["tensors"])
    if len(raw) - tensors_start != declared:
        raise ValueError(f"{path}: {len(raw) - tensors_start} bytes of tensor data, "
                         f"but the header declares {declared}")
    try:
        arch = Arch(**header["arch"])
    except ValueError as exc:
        raise ValueError(f"{path}: arch.{exc}") from exc
    shapes = arch.param_shapes()
    nets = {}
    for net_id, seed in zip((1, 2), header["seeds"]):
        nets[net_id] = NetworkParams(arch=arch, seed=seed, params={})
    offset = tensors_start
    for t in header["tensors"]:
        net, name, shape = nets.get(t["net"]), t["name"], (t["rows"], t["cols"])
        if net is None or name not in shapes:
            raise ValueError(f"{path}: unknown tensor {name!r} of net {t['net']!r}")
        if name in net.params:
            raise ValueError(f"{path}: tensor {name!r} of net {t['net']} appears twice")
        if shape != shapes[name]:
            raise ValueError(f"{path}: tensor {name!r} of net {t['net']} has shape {shape}, "
                             f"the arch gives {shapes[name]}")
        n = t["rows"] * t["cols"]
        arr = np.frombuffer(raw, dtype="<f8", count=n, offset=offset).reshape(shape)
        if not np.isfinite(arr).all():
            raise ValueError(f"{path}: tensor {name!r} of net {t['net']} holds a non-finite value")
        net.params[name] = Matrix(arr)
        offset += 8 * n
    for net_id, net in nets.items():
        missing = [n for n in ALL_GROUPS if n not in net.params]
        if missing:
            raise ValueError(f"{path}: net {net_id} lacks tensors {missing}")
    return TwinNetworks(nets[1], nets[2])
