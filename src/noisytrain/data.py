"""Synthetic labeled datasets, label-noise injection, augmentation, batching.

All randomness flows from explicit integer seeds through
``numpy.random.default_rng``; there is no global RNG state anywhere.
True labels are carried alongside the (possibly corrupted) given labels
but are only ever read by evaluation code.
"""

from __future__ import annotations

import csv
import math
import numbers
import os
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .kernel import DTYPE, Matrix, to_dtype, wrap

# substream tags; tests/test_library.py holds every module's tags distinct,
# so derived generators never collide
_STREAM_MEANS = 101
_STREAM_SAMPLES = 102
_STREAM_SYM_NOISE = 201
_STREAM_ASYM_NOISE = 202
_STREAM_BATCHES = 301
MAX_SEED = 2 ** 62   # the largest seed a run, a dataset or its noise takes


def round_half_up(x: float) -> int:
    """round() with deterministic .5-up behavior (no banker's rounding)."""
    return int(math.floor(x + 0.5))


# settings: each field's type and range, declared once on its dataclass
def setting(default=MISSING, kind=None, lo=-math.inf, hi=math.inf, *, choices=()):
    """A dataclass field that ``check_settings`` holds to ``kind`` (int, float
    or bool) within [lo, hi], or to one of the strings in ``choices``."""
    return field(default=default, metadata={"kind": str if choices else kind,
                                            "range": (lo, hi), "choices": choices})


def check_settings(obj) -> None:
    """Check each ``setting`` field of a dataclass instance, first thing in its
    ``__post_init__``: no bool or string passes for a number, NaN fails every
    range, an int given for a float is stored as a float, and the
    ``ValueError`` names the field first."""
    for f in fields(obj):
        if "kind" not in f.metadata:
            continue
        name, value, kind = f.name, getattr(obj, f.name), f.metadata["kind"]
        if kind is bool:
            if not isinstance(value, bool):
                raise ValueError(f"{name}: expected a boolean")
        elif kind is str:
            choices = f.metadata["choices"]
            if not (isinstance(value, str) and value in choices):
                raise ValueError(f"{name}: expected {'|'.join(choices)}, got {value!r}")
        else:
            object.__setattr__(obj, name, _check_number(name, value, kind, *f.metadata["range"]))


def _check_number(name: str, value, kind, lo=-math.inf, hi=math.inf):
    """``value`` as ``kind`` (int or float) if it is one within [lo, hi]; else
    a ``ValueError`` naming ``name``.  No bool passes, and NaN fails every range."""
    wanted = numbers.Integral if kind is int else numbers.Real
    if isinstance(value, bool) or not isinstance(value, wanted):
        what = "an integer" if kind is int else "a number"
        raise ValueError(f"{name}: expected {what}, got {value!r}")
    if not lo <= value <= hi:
        raise ValueError(f"{name}: {value!r} out of range [{lo}, {hi}]")
    return kind(value)


def _checked_indices(name: str, indices, n: int) -> np.ndarray:
    """``indices`` as int64 if each is an integer (or a whole float) in [0, n);
    else a ``ValueError`` naming ``name``.  Booleans, NaN and fractions are
    refused, not truncated; an empty array passes."""
    idx = np.asarray(indices)
    if idx.size and idx.dtype.kind not in "iu":
        whole = idx.dtype.kind == "f" and np.isfinite(idx) & (idx == np.floor(idx))
        if not np.all(whole):
            bad = (idx[~whole] if idx.dtype.kind == "f" else idx).ravel()[:1].tolist()[0]
            raise ValueError(f"{name}: {bad!r} is not an integer")
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ValueError(f"{name}: indices {idx.min()}..{idx.max()} outside [0, {n})")
    return idx.astype(np.int64, copy=False)


def _check_columns(probs: np.ndarray, num_classes: int | None = None) -> None:
    """Refuse a prediction that is not 2-D, or whose columns are not ``num_classes``, if given."""
    if np.ndim(probs) != 2:
        raise ValueError(f"probs: expected a 2-D array, got {np.ndim(probs)} dimensions")
    if num_classes not in (None, probs.shape[1]):
        raise ValueError(f"probs: {probs.shape[1]} columns for a dataset of {num_classes} classes")


@dataclass
class LabeledDataset:
    """Features plus true and given class labels.

    ``true_labels`` exist for evaluation only; training code must treat
    ``given_labels`` as the only available annotation.
    """

    features: Matrix
    true_labels: np.ndarray
    given_labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        self.num_classes = _check_number("num_classes", self.num_classes, int, 1)
        self.true_labels = _checked_indices("true_labels", self.true_labels, self.num_classes)
        self.given_labels = _checked_indices("given_labels", self.given_labels, self.num_classes)
        n = self.features.rows
        if len(self.true_labels) != n or len(self.given_labels) != n:
            raise ValueError("label arrays must have one entry per feature row")

    def __len__(self) -> int:
        return self.features.rows

    @property
    def dims(self) -> int:
        return self.features.cols


@dataclass(frozen=True)
class NoiseSpec:
    """Label corruption model: symmetric redistribution or structured flips."""

    kind: str = setting("symmetric", choices=("symmetric", "asymmetric"))
    rate: float = setting(0.5, float, 0.0, 1.0)
    flip_map: tuple[int, ...] | None = None

    def __post_init__(self):
        check_settings(self)
        if self.kind == "asymmetric" and self.flip_map is None:
            raise ValueError("flip_map is required for asymmetric noise")
        if self.kind != "asymmetric" and self.flip_map is not None:
            raise ValueError(f"flip_map is only for asymmetric noise, not {self.kind}")


def validate_flip_map(flip_map, num_classes: int) -> tuple[int, ...]:
    if not isinstance(flip_map, (list, tuple, np.ndarray)):
        raise ValueError("expected a list of class indices")
    fm = tuple(flip_map)
    if len(fm) != num_classes:
        raise ValueError(f"flip_map must have {num_classes} entries, got {len(fm)}")
    for c, t in enumerate(fm):
        if isinstance(t, bool) or not isinstance(t, (int, np.integer)):
            raise ValueError(f"flip_map target for class {c} must be an integer, "
                             f"got {type(t).__name__} {t!r}")
        if not 0 <= t < num_classes:
            raise ValueError(f"flip_map target {t} out of range for class {c}")
        if t == c:
            raise ValueError(f"flip_map maps class {c} to itself")
    return tuple(int(t) for t in fm)


@dataclass(frozen=True)
class AugmentationSpec:
    """Weak = Gaussian jitter; strong = larger jitter plus coordinate dropout."""

    weak_sigma: float = setting(0.1, float, 0.0, 1e9)
    strong_sigma: float = setting(0.5, float, 0.0, 1e9)
    strong_dropout_prob: float = setting(0.2, float, 0.0, 0.999999)

    def __post_init__(self):
        check_settings(self)
        if self.strong_sigma < self.weak_sigma:
            raise ValueError("strong_sigma must be >= weak_sigma")


def make_gaussian_blobs(num_classes: int, per_class: int, dims: int,
                        separation: float, seed: int) -> LabeledDataset:
    """Isotropic Gaussian class blobs with mutual mean distance >= separation.

    Samples are grouped by class (class 0 first).  Given labels start out
    identical to the true labels; corruption is a separate step.
    """
    seed = _check_number("seed", seed, int, 0, MAX_SEED)
    num_classes = _check_number("num_classes", num_classes, int, 2)
    per_class = _check_number("per_class", per_class, int, 1)
    dims = _check_number("dims", dims, int, 2)
    if not 0.0 < _check_number("separation", separation, float) < math.inf:
        raise ValueError(f"separation: {separation!r} must be finite and > 0")

    rng_means = np.random.default_rng([seed, _STREAM_MEANS])
    means = rng_means.standard_normal((num_classes, dims))
    dists = np.sqrt(((means[:, None, :] - means[None, :, :]) ** 2).sum(axis=2))
    min_dist = dists[np.triu_indices(num_classes, k=1)].min()
    if min_dist == 0.0:
        raise ValueError("degenerate mean placement; pick a different seed")
    means = means * (separation / min_dist)

    rng_samples = np.random.default_rng([seed, _STREAM_SAMPLES])
    blocks = [means[c] + rng_samples.standard_normal((per_class, dims)) for c in range(num_classes)]
    features = Matrix(np.vstack(blocks))
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), per_class)
    return LabeledDataset(features, labels, labels.copy(), num_classes)


def _corrupt(ds: LabeledDataset, rate: float, seed: int, stream: int,
             replacements) -> LabeledDataset:
    """Relabel round(rate * N_c) samples of each true class c, picked by the (seed,
    stream, c) generator, to ``replacements(rng, c, k)``; both injectors' loop."""
    rate = _check_number("rate", rate, float, 0.0, 1.0)
    seed = _check_number("seed", seed, int, 0, MAX_SEED)
    given = ds.given_labels.copy()
    for c in range(ds.num_classes):
        members = np.flatnonzero(ds.true_labels == c)
        k = round_half_up(rate * len(members))
        if k:
            rng = np.random.default_rng([seed, stream, c])
            picked = rng.choice(members, size=k, replace=False)
            given[picked] = replacements(rng, c, k)
    return LabeledDataset(ds.features, ds.true_labels, given, ds.num_classes)


def inject_symmetric_noise(ds: LabeledDataset, rate: float, seed: int) -> LabeledDataset:
    """Corrupt exactly round(rate * N_c) samples per class.

    Replacement labels are drawn uniformly from the other C-1 classes;
    a corrupted sample never keeps its own class.  The result shares ``ds``'s
    features and true labels; only its given labels are a new array.
    """
    def other_class(rng, c, k):
        draws = rng.integers(0, ds.num_classes - 1, size=k)
        return draws + (draws >= c)
    return _corrupt(ds, rate, seed, _STREAM_SYM_NOISE, other_class)


def inject_asymmetric_noise(ds: LabeledDataset, rate: float, flip_map, seed: int) -> LabeledDataset:
    """Corrupt exactly round(rate * N_c) samples per class to flip_map[c]; like
    inject_symmetric_noise, share ``ds``'s features and true labels."""
    fm = validate_flip_map(flip_map, ds.num_classes)
    return _corrupt(ds, rate, seed, _STREAM_ASYM_NOISE, lambda rng, c, k: fm[c])


def apply_noise(ds: LabeledDataset, spec: NoiseSpec, seed: int) -> LabeledDataset:
    if spec.kind == "symmetric":
        return inject_symmetric_noise(ds, spec.rate, seed)
    return inject_asymmetric_noise(ds, spec.rate, spec.flip_map, seed)


def weak_augment(x: np.ndarray, spec: AugmentationSpec, rng: np.random.Generator) -> np.ndarray:
    """Additive Gaussian jitter (row-wise independent draws), drawn in ``x``'s
    dtype, on a new array."""
    if spec.weak_sigma > 0:
        return _jitter(x, spec.weak_sigma, rng)
    return x + 0.0   # a new array, with -0.0 turned into +0.0


def strong_augment(x: np.ndarray, spec: AugmentationSpec, rng: np.random.Generator) -> np.ndarray:
    """Larger jitter, then each coordinate independently zeroed, on a new
    array; both drawn in ``x``'s dtype."""
    y = _jitter(x, spec.strong_sigma, rng) if spec.strong_sigma > 0 else x.copy()
    if spec.strong_dropout_prob > 0:
        y *= rng.random(x.shape, dtype=x.dtype) >= spec.strong_dropout_prob
    return y


def _jitter(x: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """``x`` plus N(0, sigma^2) noise drawn in ``x``'s dtype, on a new array."""
    y = rng.standard_normal(x.shape, dtype=x.dtype)
    y *= sigma
    y += x
    return y


def batch_iterator(indices, batch_size: int, seed, epoch: int) -> list[np.ndarray]:
    """Seeded shuffle keyed by (seed, epoch), split into batches.

    ``seed`` may be an int or a tuple of ints (independent substreams are
    obtained by passing distinct tuples).  The final short batch is kept.
    An empty index set yields an empty list; callers decide how to degrade.
    The iterator knows no dataset size, so it refuses only entries that are
    not non-negative integers; bounding them is the caller's job.
    """
    batch_size = _check_number("batch_size", batch_size, int, 1)
    parts = [_check_number("seed", s, int, 0)
             for s in (seed if isinstance(seed, (tuple, list)) else [seed])]
    epoch = _check_number("epoch", epoch, int, 0)
    idx = _checked_indices("indices", indices, math.inf)
    if idx.size == 0:
        return []
    rng = np.random.default_rng([*parts, _STREAM_BATCHES, epoch])
    perm = rng.permutation(idx)
    return [perm[i:i + batch_size] for i in range(0, len(perm), batch_size)]


# ---------------------------------------------------------------------------
# output files


@contextmanager
def atomic_open(path: str, mode: str = "w"):
    """Open a temp file beside ``path``; rename it over ``path`` when the body ends.

    Every output file is written through here.  If the body raises, the
    temp file is removed and ``path`` keeps its old content.  Text mode
    translates no line ending.
    """
    tmp = path + ".tmp"
    f = open(tmp, mode) if "b" in mode else open(tmp, mode, newline="")
    try:
        with f:
            yield f
    except BaseException:
        os.remove(tmp)
        raise
    os.replace(tmp, path)


# CSV snapshot: feat_0..feat_{D-1},true_label,given_label

_SNAPSHOT_BLOCK_ROWS = 1024


def dataset_csv_blocks(ds: LabeledDataset) -> Iterator[str]:
    """The snapshot's text in pieces: the header line, then blocks of
    ``_SNAPSHOT_BLOCK_ROWS`` lines.  Each feature is written to nine
    significant digits, the fewest that bring back every float32 exactly;
    features in any other dtype are refused when this is called, before a
    piece is made.  No field can hold a comma or a quote, so lines are
    joined without csv."""
    features = ds.features.data
    if features.dtype != DTYPE:
        raise ValueError(f"features: the snapshot holds {DTYPE.name} values, "
                         f"got {features.dtype.name}")
    header = ",".join([f"feat_{j}" for j in range(ds.dims)] + ["true_label", "given_label"]) + "\n"
    line = ",".join(["%.9g"] * ds.dims + ["%d", "%d"]) + "\n"

    def blocks():
        yield header
        for start in range(0, len(ds), _SNAPSHOT_BLOCK_ROWS):
            stop = start + _SNAPSHOT_BLOCK_ROWS
            yield "".join([line % (*row, t, g) for row, t, g in zip(
                features[start:stop].tolist(), ds.true_labels[start:stop].tolist(),
                ds.given_labels[start:stop].tolist())])
    return blocks()


def save_dataset_csv(ds: LabeledDataset, path: str) -> None:
    blocks = dataset_csv_blocks(ds)
    with atomic_open(path) as f:
        for block in blocks:
            f.write(block)


def load_dataset_csv(path: str, num_classes: int | None = None) -> LabeledDataset:
    with open(path, newline="") as f:
        r = csv.reader(f)
        header = next(r, [])
        if len(header) < 3 or header[-2:] != ["true_label", "given_label"]:
            raise ValueError(f"unrecognized dataset header in {path}")
        dims = len(header) - 2
        feats, true_l, given_l = [], [], []
        for i, row in enumerate(r, start=1):
            if len(row) != len(header):
                raise ValueError(f"{path}: row {i} has {len(row)} fields, "
                                 f"the header {len(header)}")
            try:
                feats.append([float(v) for v in row[:dims]])
                if not all(map(math.isfinite, feats[-1])):
                    raise ValueError("feature values must be finite")
                true_l.append(int(row[dims]))
                given_l.append(int(row[dims + 1]))
            except ValueError as exc:
                raise ValueError(f"{path}: row {i}: {exc}") from exc
    if not feats:
        raise ValueError(f"{path} holds no rows")
    true_arr = np.array(true_l, dtype=np.int64)
    given_arr = np.array(given_l, dtype=np.int64)
    if num_classes is None:
        num_classes = int(max(true_arr.max(), given_arr.max())) + 1
    try:   # each row's finiteness was checked as it was parsed
        return LabeledDataset(wrap(to_dtype(np.array(feats), first_row=1)), true_arr, given_arr,
                              num_classes)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
