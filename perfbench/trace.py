"""Spans around the public functions of each sleepstage layer.

`instrument(tracer)` swaps module attributes for timing wrappers and puts the
originals back on exit. Each name is patched in the module the caller looks
it up in: `training.model_forward` and `evaluation.model_forward`, not just
`model.model_forward`. Backward time per op comes from wrapping the closures
that ops register through `autograd.make_op`; each closure keeps the op and
the model stage that created it. Spans live in memory as (name, start, end,
parent, attrs) and are reduced to per-layer figures when the run ends.
"""
from __future__ import annotations

import functools
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from sleepstage import autograd, cache, edf, evaluation, figures, model, preprocess, training
from sleepstage.errors import SleepStageError

# every op kind the default model, its loss and eval-mode softmax call
OPS = ("conv1d", "batch_norm1d", "relu", "max_pool1d", "add", "mul", "concat",
       "absolute", "soft_threshold", "channel_pool", "sigmoid", "linear",
       "global_avg_pool", "softmax", "reshape", "weighted_ce_loss")
# fuse: the concat and pool after the branches; head: the pools between
# blocks, global average pooling and the classifier
STAGES = ("branch3", "branch5", "branch7", "fuse", "block0", "block1", "block2", "head")
ROOT = "workload"
CHECK = "bench.check"


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name: str, start: float, end: float, parent: int, attrs=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.attrs = attrs


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.ops: list[str] = []     # op whose forward is running
        self.stages: list[str] = []  # model stage whose forward is running

    def begin(self, name: str, attrs=None) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, attrs))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str, attrs=None):
        idx = self.begin(name, attrs)
        try:
            yield self.spans[idx]
        finally:
            self.end(idx)


def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of `intervals`."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [s.end - s.start - covered(s.start, s.end, children[i])
            for i, s in enumerate(spans)]


def _spanned(tracer: Tracer, name: str, fn, attrs_of=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.begin(name, attrs_of(*args, **kwargs) if attrs_of else None)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(idx)
    return wrapper


def _op(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.begin(f"autograd.fwd.{name}")
        tracer.ops.append(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.ops.pop()
            tracer.end(idx)
        tracer.spans[idx].attrs = out.data.nbytes
        return out
    return wrapper


def _staged(tracer: Tracer, name: str, stage_of, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stage = stage_of(*args, **kwargs)
        idx = tracer.begin(name, stage)
        tracer.stages.append(stage)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.stages.pop()
            tracer.end(idx)
    return wrapper


def _make_op(tracer: Tracer, fn):
    @functools.wraps(fn)
    def make_op(out_data, parents, backward_fn):
        name = f"autograd.bwd.{tracer.ops[-1] if tracer.ops else 'other'}"
        stage = tracer.stages[-1] if tracer.stages else None

        def timed_backward(g):
            idx = tracer.begin(name, stage)
            try:
                backward_fn(g)
            finally:
                tracer.end(idx)
        return fn(out_data, parents, timed_backward)
    return make_op


def _nbytes(data) -> int:
    return len(data) if isinstance(data, (bytes, bytearray)) else 0


def _cache_bytes(cache_dir) -> int:
    return sum(p.stat().st_size for p in Path(cache_dir).glob(f"*{cache.EPOCH_SUFFIX}"))


def _saved(tracer: Tracer, fn):
    """A cache.save span whose attrs carry the size of the file written."""
    @functools.wraps(fn)
    def save(obj, path):
        with tracer.span("cache.save") as span:
            fn(obj, path)
        span.attrs = os.path.getsize(path)
    return save


def _rejecting(tracer: Tracer, name: str, fn):
    """Span whose attrs carry the input size and whether the call raised."""
    @functools.wraps(fn)
    def wrapper(data, *args, **kwargs):
        idx = tracer.begin(name, [_nbytes(data), False])
        try:
            return fn(data, *args, **kwargs)
        except SleepStageError:
            tracer.spans[idx].attrs[1] = True
            raise
        finally:
            tracer.end(idx)
    return wrapper


@contextmanager
def instrument(tracer: Tracer):
    """Patch every traced name for the duration of the block."""
    patches = [
        (edf, "read_recording", _rejecting(tracer, "edf.read_recording", edf.read_recording)),
        (edf, "parse_hypnogram", _rejecting(tracer, "edf.parse_hypnogram", edf.parse_hypnogram)),
        (edf, "epoch_recording", _spanned(tracer, "edf.epoch_recording", edf.epoch_recording)),
        (preprocess, "compute_stats",
         _spanned(tracer, "preprocess.compute_stats", preprocess.compute_stats)),
        (preprocess, "normalize", _spanned(tracer, "preprocess.normalize", preprocess.normalize)),
        (training, "augment", _spanned(tracer, "preprocess.augment", training.augment)),
        (cache, "save_epochs", _saved(tracer, cache.save_epochs)),
        (cache, "save_stats", _saved(tracer, cache.save_stats)),
        (cache, "load_all", _spanned(tracer, "cache.load_all", cache.load_all, _cache_bytes)),
        (autograd, "make_op", _make_op(tracer, autograd.make_op)),
        (autograd.Tensor, "backward",
         _spanned(tracer, "autograd.backward", autograd.Tensor.backward)),
        (training, "weighted_ce_loss",
         _op(tracer, "weighted_ce_loss", training.weighted_ce_loss)),
        (model, "branch_forward", _staged(tracer, "model.branch",
                                          lambda mp, x, k, tr: f"branch{k}",
                                          model.branch_forward)),
        (model, "multiscale_forward", _staged(tracer, "model.multiscale",
                                              lambda *a, **k: "fuse", model.multiscale_forward)),
        (model, "attention_block", _staged(tracer, "model.block",
                                           lambda mp, i, x, tr: f"block{i}",
                                           model.attention_block)),
        (training, "adam_step", _spanned(tracer, "training.adam_step", training.adam_step)),
        (training, "train", _spanned(tracer, "training.train", training.train)),
        (evaluation, "evaluate", _spanned(tracer, "evaluation.evaluate", evaluation.evaluate)),
        (evaluation, "predict_probabilities",
         _spanned(tracer, "evaluation.predict_probabilities", evaluation.predict_probabilities)),
        (evaluation, "summary_metrics",
         _spanned(tracer, "evaluation.metrics", evaluation.summary_metrics)),
        (evaluation, "stage_metrics",
         _spanned(tracer, "evaluation.metrics", evaluation.stage_metrics)),
        (evaluation, "roc_pr_curves",
         _spanned(tracer, "evaluation.roc_pr_curves", evaluation.roc_pr_curves)),
        (figures, "hypnogram_svg", _spanned(tracer, "figures.svg", figures.hypnogram_svg)),
        (figures, "confusion_heatmap_svg",
         _spanned(tracer, "figures.svg", figures.confusion_heatmap_svg)),
    ]
    patches += [(autograd, op, _op(tracer, op, getattr(autograd, op)))
                for op in OPS if op != "weighted_ce_loss"]
    forward = _staged(tracer, "model.forward", lambda *a, **k: "head", model.model_forward)
    patches += [(training, "model_forward", forward), (evaluation, "model_forward", forward)]

    originals = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    try:
        for owner, name, wrapper in patches:
            setattr(owner, name, wrapper)
        yield tracer
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer totals over the traced run, keyed by per_layer metric name.

    `_s` figures are self times except the composites: model stages,
    training.step_s/forward_s/validation_s and evaluation.predict_s are
    inclusive. trace.coverage is the share of the run's wall time, checks
    excluded, that the spans of sleepstage's layers account for.
    """
    selfs = self_times(tracer.spans)
    incl: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    size: dict[str, float] = defaultdict(float)
    stage_fwd: dict[str, float] = defaultdict(float)
    stage_bwd: dict[str, float] = defaultdict(float)
    rejected = 0
    train_fwd = validation = 0.0  # spans directly under training.train
    for s, own_s in zip(tracer.spans, selfs):
        dur = s.end - s.start
        incl[s.name] += dur
        own[s.name] += own_s
        calls[s.name] += 1
        if s.name in ("edf.read_recording", "edf.parse_hypnogram"):
            size[s.name] += s.attrs[0]
            rejected += s.attrs[1]
        elif s.name.startswith("autograd.fwd.") or s.name.startswith("cache."):
            size[s.name] += s.attrs or 0
        elif s.name.startswith("autograd.bwd.") and s.attrs:
            stage_bwd[s.attrs] += dur
        elif s.name in ("model.branch", "model.block"):
            stage_fwd[s.attrs] += dur
        if s.parent >= 0 and tracer.spans[s.parent].name == "training.train":
            if s.name in ("model.forward", "autograd.fwd.weighted_ce_loss"):
                train_fwd += dur
            elif s.name == "evaluation.evaluate":
                validation += dur
    stage_fwd["fuse"] = incl["model.multiscale"] - incl["model.branch"]
    stage_fwd["head"] = incl["model.forward"] - incl["model.multiscale"] - incl["model.block"]

    root = sum(s.end - s.start for s in tracer.spans if s.name == ROOT)
    layered = sum(t for s, t in zip(tracer.spans, selfs) if s.name not in (ROOT, CHECK))
    mb = 1e-6
    out = {
        "edf.read_recording_s": own["edf.read_recording"],
        "edf.parse_hypnogram_s": own["edf.parse_hypnogram"],
        "edf.epoch_recording_s": own["edf.epoch_recording"],
        "edf.bytes_in": mb * (size["edf.read_recording"] + size["edf.parse_hypnogram"]),
        "edf.rejected": rejected,
        "preprocess.compute_stats_s": own["preprocess.compute_stats"],
        "preprocess.normalize_s": own["preprocess.normalize"],
        "preprocess.augment_s": own["preprocess.augment"],
        "preprocess.augment_calls": calls["preprocess.augment"],
        "cache.save_s": own["cache.save"],
        "cache.bytes_written": mb * size["cache.save"],
        "cache.load_s": own["cache.load_all"],
        "cache.bytes_read": mb * size["cache.load_all"],
        "autograd.backward_walk_s": own["autograd.backward"],
    }
    for op in OPS:
        out[f"autograd.fwd_s.{op}"] = own[f"autograd.fwd.{op}"]
        out[f"autograd.bwd_s.{op}"] = own[f"autograd.bwd.{op}"]
        out[f"autograd.calls.{op}"] = calls[f"autograd.fwd.{op}"]
        out[f"autograd.out_mb.{op}"] = mb * size[f"autograd.fwd.{op}"]
    for stage in STAGES:
        out[f"model.fwd_s.{stage}"] = stage_fwd[stage]
        out[f"model.bwd_s.{stage}"] = stage_bwd[stage]
    out.update({
        "training.step_s": incl["training.train"] - validation,
        "training.forward_s": train_fwd,
        "training.backward_s": incl["autograd.backward"],
        "training.adam_s": own["training.adam_step"],
        "training.batch_s": own["training.train"] + own["preprocess.augment"],
        "training.validation_s": validation,
        "evaluation.predict_s": incl["evaluation.predict_probabilities"],
        "evaluation.metrics_s": own["evaluation.metrics"],
        "evaluation.curves_s": own["evaluation.roc_pr_curves"],
        "evaluation.other_s": own["evaluation.evaluate"],
        "figures.svg_s": own["figures.svg"],
        "trace.coverage": layered / (root - incl[CHECK]) if root > incl[CHECK] else 0.0,
    })
    return out
