"""Out-of-program tracing: spans and counts around noisytrain's layer calls.

`install(recorder)` replaces functions of the loaded `noisytrain` modules
with wrappers.  Because callers import names with `from .x import y`,
a wrapper is bound in every `noisytrain.*` module that holds the original
object, not only in the defining one.  Spans (name, parent, start, end)
stay in memory until the run ends; `self_times` turns them into per-layer
self time: a span's duration minus the part of it its children cover.

Kernel primitives other than `backward` and `sgd_step` get counters, not
spans, so their cost stays inside the caller's span (a forward pass or a
loss term) and the trace does not wrap several hundred thousand calls.
"""

from __future__ import annotations

import functools
import gc
import os
import sys
import time

clock = time.perf_counter

# (module, function) -> layer span name
SPANS = {
    ("kernel", "backward"): "kernel.backward",
    ("kernel", "sgd_step"): "kernel.sgd",
    ("model", "forward_projection"): "model.train_forward",
    ("model", "forward_softmax"): "model.eval_forward",
    ("model", "ensemble_softmax"): "model.eval_forward",
    ("model", "save_checkpoint"): "model.checkpoint",
    ("data", "make_gaussian_blobs"): "data.build",
    ("data", "apply_noise"): "data.build",
    ("data", "save_dataset_csv"): "data.snapshot",
    ("data", "load_dataset_csv"): "data.snapshot",
    ("data", "weak_augment"): "data.augment",
    ("data", "strong_augment"): "data.augment",
    ("data", "batch_iterator"): "data.batch",
    ("selection", "export_selection_csv"): "selection.export",
    ("training", "warmup_train"): "training.warmup",
    ("training", "train_half_epoch"): "training.half_epoch",
    ("training", "select_for_network"): "selection.select",
    ("training", "refine_labels"): "training.refine",
    ("training", "guess_pseudo_labels"): "training.guess",
    ("training", "mixmatch_assemble"): "training.mixmatch",
    ("training", "mixup"): "training.mixmatch",
    ("training", "loss_lx"): "training.loss",
    ("training", "loss_lu"): "training.loss",
    ("training", "loss_reg"): "training.loss",
    ("training", "loss_contrastive"): "training.loss",
    ("training", "total_loss"): "training.loss",
    ("metrics", "accuracy"): "metrics.accuracy",
    ("metrics", "roc_auc"): "metrics.auc",
    ("metrics", "pseudo_label_recall"): "metrics.pseudo_recall",
    ("runner", "build_datasets"): "data.build",
    ("runner", "write_metrics_csv"): "runner.write",
    ("runner", "_write_json"): "runner.write",
    ("runner", "cmd_run"): "runner.command",
    ("runner", "cmd_ablate"): "runner.command",
}

GC_SPAN = "gc.pause"

# Count keys that must repeat exactly between two traced runs of one seed.
EXACT_COUNTS = (
    "kernel.backward_calls", "kernel.tape_records", "kernel.matrix_inits",
    "kernel.matmul_calls", "kernel.matmul_flop", "model.eval_rows",
    "training.iterations", "training.warmup_iterations", "training.halves",
    "training.degenerate_halves", "selection.select_calls",
    "selection.export_bytes", "runner.bytes_written",
)


class Recorder:
    """Span list, open-span stack and counters for one traced process."""

    def __init__(self):
        self.spans: list[list] = []      # [name, parent span or None, start, end]
        self.stack: list[list] = []
        self.gc_events: list[tuple] = []  # (parent span or None, start, end)
        self.counts: dict[str, int] = {k: 0 for k in EXACT_COUNTS}
        self.counts["gc.collected"] = 0
        self.phase: str | None = None
        self._gc_open: tuple | None = None

    def add(self, key: str, n: int) -> None:
        self.counts[key] += n

    def spanned(self, name: str, fn, after=None, phase: str | None = None):
        stack = self.stack
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else None, 0.0, 0.0]
            spans.append(span)
            stack.append(span)
            outer = self.phase
            if phase is not None:
                self.phase = phase
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
                self.phase = outer
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    def on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_open = (self.stack[-1] if self.stack else None, clock())
        elif self._gc_open is not None:
            parent, start = self._gc_open
            self.gc_events.append((parent, start, clock()))
            self.counts["gc.collected"] += info.get("collected", 0)
            self._gc_open = None

    def export(self, window: tuple[float, float]) -> dict:
        """Plain-data form: spans as [name, parent index, start, end]."""
        if self.on_gc in gc.callbacks:
            gc.callbacks.remove(self.on_gc)
        index = {id(s): i for i, s in enumerate(self.spans)}
        rows = [[s[0], index[id(s[1])] if s[1] is not None else -1, s[2], s[3]]
                for s in self.spans]
        for parent, start, end in self.gc_events:
            rows.append([GC_SPAN, index[id(parent)] if parent is not None else -1,
                         start, end])
        return {"window": list(window), "spans": rows, "counts": dict(self.counts)}


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _file_size(pos: int, name: str):
    def size(args, kwargs):
        return os.path.getsize(_arg(args, kwargs, pos, name))
    return size


def _counting(fn, count):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        count(args, kwargs)
        return fn(*args, **kwargs)
    return wrapper


def _rebind(modules: dict, original, replacement, undo: list) -> None:
    """Point every module-level reference to `original` at `replacement`."""
    for mod in modules.values():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))


def install(rec: Recorder):
    """Wrap the loaded noisytrain layers and hook the cyclic collector.

    Returns a function that puts every original back.
    """
    import noisytrain.cli  # noqa: F401  (loads every layer module)

    modules = {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
               if name.startswith("noisytrain.") and mod is not None}
    kernel = modules["kernel"]
    add = rec.add
    undo: list = []

    def after_backward(args, kwargs, result):
        add("kernel.backward_calls", 1)
        add("kernel.tape_records", _arg(args, kwargs, 0, "tape").num_records)
        if rec.phase == "ssl":
            add("training.iterations", 1)
        elif rec.phase == "warmup":
            add("training.warmup_iterations", 1)

    def after_half(args, kwargs, result):
        add("training.halves", 1)
        if result.degenerate is not None:
            add("training.degenerate_halves", 1)

    def bytes_to(key, size):
        return lambda args, kwargs, result: add(key, size(args, kwargs))

    after = {
        ("kernel", "backward"): after_backward,
        ("training", "train_half_epoch"): after_half,
        ("training", "select_for_network"):
            lambda a, k, r: add("selection.select_calls", 1),
        ("selection", "export_selection_csv"):
            bytes_to("selection.export_bytes", _file_size(3, "path")),
        ("runner", "write_metrics_csv"):
            bytes_to("runner.bytes_written", _file_size(1, "path")),
        ("runner", "_write_json"):
            bytes_to("runner.bytes_written", _file_size(1, "path")),
    }
    phases = {("training", "warmup_train"): "warmup",
              ("training", "train_half_epoch"): "ssl"}

    for (mod_name, fn_name), span_name in SPANS.items():
        original = getattr(modules[mod_name], fn_name)
        wrapped = rec.spanned(span_name, original, after.get((mod_name, fn_name)),
                              phases.get((mod_name, fn_name)))
        _rebind(modules, original, wrapped, undo)

    # forward_logits is a training forward only when it records on a tape;
    # untaped calls come from forward_softmax and belong to its eval span.
    model = modules["model"]
    logits = model.forward_logits
    train_logits = rec.spanned("model.train_forward", logits)

    @functools.wraps(logits)
    def forward_logits(net, x, tape=None):
        if tape is None:
            return logits(net, x)
        return train_logits(net, x, tape)
    _rebind(modules, logits, forward_logits, undo)

    forward_softmax = model.forward_softmax
    _rebind(modules, forward_softmax, _counting(
        forward_softmax, lambda a, k: add("model.eval_rows", _arg(a, k, 1, "x").rows)), undo)

    def count_matmul(args, kwargs):
        a, b = _arg(args, kwargs, 0, "a"), _arg(args, kwargs, 1, "b")
        add("kernel.matmul_calls", 1)
        add("kernel.matmul_flop", 2 * a.rows * a.cols * b.cols)
    matmul = kernel.matmul
    _rebind(modules, matmul, _counting(matmul, count_matmul), undo)

    init = kernel.Matrix.__init__
    kernel.Matrix.__init__ = _counting(init, lambda a, k: add("kernel.matrix_inits", 1))
    undo.append((kernel.Matrix, "__init__", init))

    gc.callbacks.append(rec.on_gc)

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
        if rec.on_gc in gc.callbacks:
            gc.callbacks.remove(rec.on_gc)
    return restore


def self_times(spans: list, window: tuple[float, float]) -> tuple[dict, float]:
    """Per-name self time, and the part of `window` outside every root span.

    `spans` rows are [name, parent index (-1 for a root), start, end].
    Children are clipped to their parent's interval and overlapping
    children are merged, so no instant is counted twice.
    """
    children: dict[int, list] = {}
    for _, parent, start, end in spans:
        children.setdefault(parent, []).append((start, end))

    def covered(lo: float, hi: float, intervals) -> float:
        total, reach = 0.0, lo
        for start, end in sorted(intervals):
            start, end = max(start, reach), min(end, hi)
            if end > start:
                total += end - start
                reach = end
        return total

    totals: dict[str, float] = {}
    for i, (name, _, start, end) in enumerate(spans):
        own = (end - start) - covered(start, end, children.get(i, ()))
        totals[name] = totals.get(name, 0.0) + own
    lo, hi = window
    uncovered = (hi - lo) - covered(lo, hi, children.get(-1, ()))
    return totals, uncovered
