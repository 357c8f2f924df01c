"""Shared test helpers: synthetic recordings and corpora, micro model configs."""
from __future__ import annotations

import datetime as dt
import struct
from fractions import Fraction
from pathlib import Path

import numpy as np

from numpy.lib.stride_tricks import sliding_window_view

from sleepstage import autograd as ag
from sleepstage import cache, model
from sleepstage.autograd import Tensor
from sleepstage.edf import (
    N_STAGES,
    EpochSet,
    SignalHeader,
    build_edf,
    encode_annotation_signal,
)
from sleepstage.evaluation import ConfusionMatrix
from sleepstage.model import ModelConfig, ModelParams, branch_forward, init_params

# one line per acceptance criterion, printed in the terminal summary
ACCEPTANCE_LINES: list[str] = []

EEG_CHANNEL = "EEG Fpz-Cz"

# one distinguishing frequency per stage code (N3..W), Hz
CLASS_FREQS = {0: 2.0, 1: 6.0, 2: 10.0, 3: 14.0, 4: 18.0}


def micro_model_config(**overrides) -> ModelConfig:
    base = dict(branch_channels=4, input_length=64, pool_sizes=(2, 2, 2))
    base.update(overrides)
    return ModelConfig(**base)


def parameter_count(cfg: ModelConfig) -> int:
    mp = init_params(cfg, seed=0)
    return sum(p.data.size for p in mp.parameters())


def from_display(rows) -> ConfusionMatrix:
    """Build from the published layout (rows W,R,N1,N2,N3 x cols N3..W)."""
    m = np.asarray(rows, dtype=np.int64)
    if m.shape != (N_STAGES, N_STAGES):
        raise ValueError(f"display matrix must be 5x5, got {m.shape}")
    return ConfusionMatrix(m[::-1, :])


def to_display(cm: ConfusionMatrix) -> np.ndarray:
    return cm.counts[::-1, :].copy()


def sine_epoch(label: int, rng: np.random.Generator, length: int = 3000,
               rate: float = 100.0, noise: float = 0.05) -> np.ndarray:
    t = np.arange(length) / rate
    phase = rng.uniform(0, 2 * np.pi)
    return np.sin(2 * np.pi * CLASS_FREQS[int(label)] * t + phase) + \
        noise * rng.normal(size=length)


def epoch_set(samples, labels, subjects="s") -> EpochSet:
    """An EpochSet of the given rows; one subject name stands for every row."""
    n = len(samples)
    return EpochSet(
        samples=np.asarray(samples),
        labels=np.asarray(labels, dtype=np.int64),
        subjects=np.full(n, subjects) if isinstance(subjects, str) else np.asarray(subjects),
    )


def sine_epochs(n: int, seed: int = 0, length: int = 3000, rate: float = 100.0,
                subject: str = "synthetic") -> EpochSet:
    """Balanced 5-class dataset of stage-coded sinusoids, trivially separable
    by band energy."""
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % 5
    return epoch_set([sine_epoch(label, rng, length=length, rate=rate) for label in labels],
                     labels, subject)


def digitize(physical: np.ndarray, sig: SignalHeader) -> np.ndarray:
    gain = (sig.physical_max - sig.physical_min) / (sig.digital_max - sig.digital_min)
    d = np.round((physical - sig.physical_min) / gain) + sig.digital_min
    return np.clip(d, sig.digital_min, sig.digital_max).astype(np.int32)


def eeg_signal_header(samples_per_record: int = 3000) -> SignalHeader:
    return SignalHeader(
        label=EEG_CHANNEL,
        transducer="AgAgCl electrode",
        physical_dimension="uV",
        physical_min=-204.8,
        physical_max=204.7,
        digital_min=-2048,
        digital_max=2047,
        samples_per_record=samples_per_record,
    )


def build_corpus_recording(path: Path, subject: str, stage_cycle, n_epochs: int,
                           seed: int, rate: int = 100,
                           sidecar_hypnogram: bool = True) -> None:
    """Write <subject>-PSG.edf (+ optional <subject>-Hypnogram.edf) holding
    stage-coded sinusoid epochs scored 30 s apiece."""
    rng = np.random.default_rng(seed)
    length = rate * 30
    sig = eeg_signal_header(samples_per_record=length)
    labels = [stage_cycle[i % len(stage_cycle)] for i in range(n_epochs)]
    physical = np.concatenate([
        100.0 * sine_epoch(int(lbl), rng, length=length, rate=rate) for lbl in labels])
    digital = digitize(physical, sig)

    intervals = []
    start = 0
    for i, lbl in enumerate(labels):
        token = {0: "3", 1: "2", 2: "1", 3: "R", 4: "W"}[int(lbl)]
        if intervals and intervals[-1][2] == token:
            onset, dur, tok = intervals[-1]
            intervals[-1] = (onset, dur + 30.0, tok)
        else:
            intervals.append((float(30 * i), 30.0, token))
    ann_sig, ann_arr = encode_annotation_signal(
        intervals, record_count=n_epochs, record_duration=30.0,
        samples_per_record=16 * (2 + len(intervals)))

    if sidecar_hypnogram:
        psg = build_edf([(sig, digital)], record_count=n_epochs,
                        record_duration=Fraction(30),
                        start=dt.datetime(1989, 4, 24, 23, 0, 0))
        hyp = build_edf([(ann_sig, ann_arr)], record_count=n_epochs,
                        record_duration=Fraction(30),
                        start=dt.datetime(1989, 4, 24, 23, 0, 0))
        (path / f"{subject}-PSG.edf").write_bytes(psg)
        (path / f"{subject}-Hypnogram.edf").write_bytes(hyp)
    else:
        psg = build_edf([(sig, digital), (ann_sig, ann_arr)], record_count=n_epochs,
                        record_duration=Fraction(30),
                        start=dt.datetime(1989, 4, 24, 23, 0, 0))
        (path / f"{subject}-PSG.edf").write_bytes(psg)


# --- gradient checking: a sum op and central finite differences ---

def tensor_sum(x: Tensor) -> Tensor:
    """Sum of every element of x, as a scalar tensor."""
    node, shape = x.node, x.data.shape

    def _bw(g):
        node.accumulate_grad(np.broadcast_to(g, shape).copy())

    return ag.make_op(x.data.sum(), (x,), _bw)


def finite_difference_grad(f, param: Tensor, h: float = 1e-4) -> np.ndarray:
    """Central-difference gradient of scalar f() wrt param, perturbing in place."""
    flat = param.data.reshape(-1)
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = f().item()
        flat[i] = orig - h
        down = f().item()
        flat[i] = orig
        grad[i] = (up - down) / (2.0 * h)
    return grad.reshape(param.data.shape)


# --- float64 reference forward: the engine ops as they were before the
# inference path, to pin that training arithmetic did not change ---

def reference_relu(x: Tensor) -> Tensor:
    mask = x.data > 0
    out = np.where(mask, x.data, 0.0)
    return ag.make_op(out, (x,), lambda g: x.accumulate_grad(g * mask))


def reference_max_pool1d(x: Tensor, size: int) -> Tensor:
    """Max pool as a sliding-window argmax gather; gradient to the first max."""
    batch, chans, _ = x.data.shape
    windows = sliding_window_view(x.data, size, axis=2)[:, :, ::size, :]
    arg = windows.argmax(axis=3)
    out = np.take_along_axis(windows, arg[..., None], axis=3)[..., 0]

    def _bw(g):
        gx = np.zeros_like(x.data)
        bidx = np.broadcast_to(np.arange(batch)[:, None, None], arg.shape)
        cidx = np.broadcast_to(np.arange(chans)[None, :, None], arg.shape)
        pos = arg + size * np.arange(out.shape[2])[None, None, :]
        np.add.at(gx, (bidx, cidx, pos), g)
        x.accumulate_grad(gx)

    return ag.make_op(out, (x,), _bw)


def reference_soft_threshold(x: Tensor, tau: Tensor) -> Tensor:
    """Soft threshold as an np.where over sign(x) * (|x| - tau)."""
    sign = np.sign(x.data)
    shrunk = np.abs(x.data) - tau.data
    mask = shrunk > 0
    out = np.where(mask, sign * shrunk, 0.0)

    def _bw(g):
        if x.requires_grad:
            x.accumulate_grad(g * mask)
        if tau.requires_grad:
            tau.accumulate_grad(ag._unbroadcast(np.where(mask, -sign * g, 0.0), tau.data.shape))

    return ag.make_op(out, (x, tau), _bw)


def reference_conv1d(x: Tensor, kernel: Tensor, bias: Tensor, padding: int = 0) -> Tensor:
    """Conv1d as einsums over the [B,Cin,W',K] window view: one for the output
    and the weight gradient, one per tap for the input gradient."""
    width = x.data.shape[2]
    ksize = kernel.data.shape[2]
    xp = np.pad(x.data, ((0, 0), (0, 0), (padding, padding))) if padding else x.data
    windows = sliding_window_view(xp, ksize, axis=2)  # [B,Cin,W',K]
    w_out = windows.shape[2]
    out = np.einsum("biwk,oik->bow", windows, kernel.data, optimize=True)
    out += bias.data[None, :, None]

    def _bw(g):
        if kernel.requires_grad:
            kernel.accumulate_grad(np.einsum("bow,biwk->oik", g, windows, optimize=True))
        if bias.requires_grad:
            bias.accumulate_grad(g.sum(axis=(0, 2)))
        if x.requires_grad:
            gxp = np.zeros_like(xp)
            for k in range(ksize):
                gxp[:, :, k:k + w_out] += np.einsum(
                    "bow,oi->biw", g, kernel.data[:, :, k], optimize=True)
            x.accumulate_grad(gxp[:, :, padding:padding + width] if padding else gxp)

    return ag.make_op(out, (x, kernel, bias), _bw)


def reference_multiscale_forward(mp: ModelParams, x: Tensor, training: bool) -> Tensor:
    """Concatenate the branches, then pool the concat."""
    fused = ag.concat([branch_forward(mp, x, k, training)
                       for k in mp.cfg.branch_kernel_sizes])
    p = mp.cfg.pool_sizes[0]
    return ag.max_pool1d(fused, p) if p else fused


def use_reference_forward(monkeypatch) -> None:
    """Route model_forward through the reference ops for the rest of a test."""
    monkeypatch.setattr(ag, "relu", reference_relu)
    monkeypatch.setattr(ag, "max_pool1d", reference_max_pool1d)
    monkeypatch.setattr(model, "multiscale_forward", reference_multiscale_forward)


def randomize_batch_norms(mp: ModelParams, rng: np.random.Generator) -> ModelParams:
    """Give every batch norm of mp random gamma, beta and running mean/var,
    so that a wrong fold shows (a fresh model's norms are the identity)."""
    for name, stats in mp.bn_stats.items():
        n = stats.mean.size
        mp[f"{name}.gamma"].data[...] = rng.uniform(0.5, 1.5, n)
        mp[f"{name}.beta"].data[...] = rng.normal(0.0, 0.3, n)
        stats.mean[...] = rng.normal(0.0, 0.3, n)
        stats.var[...] = rng.uniform(0.5, 2.0, n)
    return mp


def graph_free(mp: ModelParams) -> ModelParams:
    """mp unfolded, each parameter a plain tensor over the same array: its
    eval-mode forward is the reference the fold is checked against, and it
    records no backward graph, so a whole batch's activations are not kept."""
    return ModelParams(mp.cfg, {name: Tensor(p.data) for name, p in mp.params.items()},
                       mp.bn_stats)


# --- reference curves: the tuple-per-point sweep that roc_pr_curves ran
# before it built float64 point arrays ---

def reference_trapezoid(points) -> float:
    area = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        area += 0.5 * (x1 - x0) * (y1 + y0)
    return area


def reference_roc_pr_curves(scores: np.ndarray, labels, c: int):
    """(roc_points, pr_points, roc_auc, pr_auc) of class c, points as tuples
    of Python floats, one per distinct score, by a running loop."""
    scores = np.asarray(scores, dtype=np.float64)
    y = (np.asarray([int(label) for label in labels]) == c).astype(np.int64)
    pos = int(y.sum())
    neg = int(y.size - pos)
    s = scores[:, c]
    order = np.argsort(-s, kind="stable")
    cum_tp = np.cumsum(y[order])
    idx = np.flatnonzero(np.diff(s[order], append=-np.inf))
    roc = [(0.0, 0.0)]
    pr = [(0.0, 1.0)]
    for i in idx.tolist():
        tp = int(cum_tp[i])
        fp = (i + 1) - tp
        roc.append((fp / neg, tp / pos))
        pr.append((tp / pos, tp / (tp + fp)))
    return tuple(roc), tuple(pr), reference_trapezoid(roc), reference_trapezoid(pr)


# --- reference cache load: each file read whole and viewed as its two
# columns (label bytes, then float32 sample rows), then the files joined with
# np.concatenate ---

def reference_load_all(cache_dir) -> EpochSet:
    """The EpochSet of every *.epochs file of cache_dir, in sorted order; no
    checks."""
    paths = sorted(Path(cache_dir).glob(f"*{cache.EPOCH_SUFFIX}"))
    labels, samples, subjects = [], [], []
    for p in paths:
        blob = p.read_bytes()
        count = int.from_bytes(blob[8:12], "little")
        labels.append(np.frombuffer(blob, dtype=np.uint8, count=count, offset=12))
        samples.append(np.frombuffer(blob, dtype="<f4", offset=12 + count).reshape(count, -1))
        subjects.append(cache.subject_of(p.name[:-len(cache.EPOCH_SUFFIX)]))
    return EpochSet(
        samples=np.concatenate(samples),
        labels=np.concatenate(labels).astype(np.int64),
        subjects=np.repeat(subjects, [len(column) for column in labels]),
    )


def version1_cache_bytes(blob: bytes) -> bytes:
    """The version-1 layout of a cache file's bytes: the same magic and count,
    version 1, then one record per epoch of its label byte and its float32
    samples, in place of the label column and the sample rows."""
    count = int.from_bytes(blob[8:12], "little")
    samples = np.frombuffer(blob, dtype="<f4", offset=12 + count).reshape(count, -1)
    records = np.empty(count, dtype=[("label", "u1"), ("x", "<f4", (samples.shape[1],))])
    records["label"] = np.frombuffer(blob, dtype=np.uint8, count=count, offset=12)
    records["x"] = samples
    return blob[:4] + struct.pack("<II", 1, count) + records.tobytes()
