"""Weighted cross-entropy objective, Adam, and the training loop.

The loss weights each sample by w[class] = clamp(ln(1/p(class)), 1, 5) with
p taken from the training split only, and averages a batch as
sum(w_i * ce_i) / sum(w_i). Shuffling and augmentation draw from separate
seeded RNG streams so runs are bit-reproducible.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import autograd as ag
from . import evaluation
from .autograd import ParamTensor, Tensor
from .edf import EpochSet, LabeledEpoch
from .errors import EmptySplit, MissingGradient, ShapeMismatch, ZeroProportion
from .model import ModelConfig, ModelParams, init_params, model_forward
from .preprocess import AugmentConfig, augment

_SHUFFLE_STREAM = 0
_AUGMENT_STREAM = 1


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.0005
    batch_size: int = 8
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    max_passes: int = 30
    seed: int = 0
    checkpoint_every: int = 0  # passes between periodic checkpoints; 0 = off

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass(frozen=True)
class ClassWeights:
    """Per-stage loss weights, each clamped into [1, 5]."""

    values: tuple[float, float, float, float, float]

    def __getitem__(self, label) -> float:
        return self.values[int(label)]

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=np.float64)


def class_weights(proportions) -> ClassWeights:
    """weight[c] = min(5, max(1, ln(1/p(c)))), natural log.

    `proportions` maps class code (or StageLabel) to its label share; an
    array indexed by code works too.
    """
    if isinstance(proportions, dict):
        if len(proportions) != 5:
            raise ZeroProportion("need a proportion for each of the 5 stages")
        props = np.array([float(proportions[key]) for key in sorted(proportions)])
    else:
        props = np.asarray(proportions, dtype=np.float64)
        if props.shape != (5,):
            raise ZeroProportion("need a proportion for each of the 5 stages")
    if np.any(props <= 0):
        raise ZeroProportion(f"non-positive class proportion in {props}")
    w = np.minimum(5.0, np.maximum(1.0, np.log(1.0 / props)))
    return ClassWeights(values=tuple(float(v) for v in w))


def proportions_from_labels(labels: Sequence[int]) -> np.ndarray:
    codes = np.asarray([int(l) for l in labels])
    counts = np.bincount(codes, minlength=5).astype(np.float64)
    if codes.size == 0 or np.any(counts == 0):
        raise ZeroProportion(
            f"training split lacks examples of some stage (counts {counts.astype(int)})")
    return counts / codes.size


def weighted_ce_loss(logits: Tensor, labels, weights: ClassWeights) -> Tensor:
    """Batch loss = sum_i w[c_i]*(-x_i[c_i] + logsumexp(x_i)) / sum_i w[c_i]."""
    codes = np.asarray([int(l) for l in np.atleast_1d(labels)])
    if logits.ndim != 2 or logits.shape[0] != codes.size:
        raise ShapeMismatch(f"logits {logits.shape} vs {codes.size} labels")
    x = logits.data
    m = x.max(axis=1, keepdims=True)
    lse = (m + np.log(np.exp(x - m).sum(axis=1, keepdims=True)))[:, 0]
    w = weights.as_array()[codes]
    per_sample = w * (lse - x[np.arange(codes.size), codes])
    w_total = w.sum()
    out = per_sample.sum() / w_total

    def _bw(g):
        if logits.requires_grad:
            p = np.exp(x - m)
            p /= p.sum(axis=1, keepdims=True)
            p[np.arange(codes.size), codes] -= 1.0
            logits.accumulate_grad(g * p * (w / w_total)[:, None])

    return ag.make_op(np.float64(out), (logits,), _bw)


class AdamState:
    """First/second moment estimates plus the shared step counter."""

    def __init__(self, params: Sequence[ParamTensor]):
        self.m = {p.name: np.zeros_like(p.data) for p in params}
        self.v = {p.name: np.zeros_like(p.data) for p in params}
        self.step = 0


def adam_step(params: Sequence[ParamTensor], state: AdamState,
              cfg: TrainConfig) -> None:
    """One bias-corrected Adam update, in place."""
    state.step += 1
    t = state.step
    b1, b2 = cfg.adam_beta1, cfg.adam_beta2
    for p in params:
        if p.grad is None:
            raise MissingGradient(f"parameter {p.name!r} has no gradient")
        g = p.grad
        m = state.m[p.name]
        v = state.v[p.name]
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        p.data -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.adam_eps)


@dataclass
class LogRow:
    train_pass: int
    step: int
    train_loss: float
    val_overall_acc: float | None
    val_kappa: float | None
    val_macro_f1: float | None


@dataclass
class TrainResult:
    params: ModelParams            # best-by-validation-kappa snapshot
    final_params: ModelParams
    log: list[LogRow]
    weights: ClassWeights
    best_pass: int
    best_kappa: float


def train(epochs: EpochSet | Sequence[LabeledEpoch],
          train_idx: Sequence[int],
          val_idx: Sequence[int],
          cfg: TrainConfig,
          model_cfg: ModelConfig,
          augment_cfg: AugmentConfig | None = None,
          initial: ModelParams | None = None,
          on_pass: Callable[[int, ModelParams], None] | None = None,
          stop_fn: Callable[[LogRow], bool] | None = None) -> TrainResult:
    """Mini-batch training with per-pass validation and best-kappa retention.

    Augmentation touches the training stream only; validation epochs are
    forwarded untouched in eval mode.
    """
    train_idx = np.asarray(sorted(train_idx), dtype=np.int64)
    val_idx = np.asarray(sorted(val_idx), dtype=np.int64)
    if train_idx.size == 0 or val_idx.size == 0:
        raise EmptySplit(f"train {train_idx.size} / validation {val_idx.size} epochs")
    if np.intersect1d(train_idx, val_idx).size:
        raise EmptySplit("train and validation splits overlap")

    epochs = EpochSet.of(epochs)
    labels = epochs.labels
    weights = class_weights(proportions_from_labels(labels[train_idx]))

    mp = initial.copy() if initial is not None else init_params(model_cfg, seed=cfg.seed)
    state = AdamState(mp.parameters())
    shuffle_rng = np.random.default_rng(
        np.random.SeedSequence(cfg.seed, spawn_key=(_SHUFFLE_STREAM,)))

    best: ModelParams | None = None
    best_kappa = -np.inf
    best_pass = -1
    log: list[LogRow] = []

    for p in range(1, cfg.max_passes + 1):
        order = train_idx[shuffle_rng.permutation(train_idx.size)]
        losses = []
        for start in range(0, order.size, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            if augment_cfg is None:
                rows = epochs.samples[batch].astype(np.float64)
            else:
                rows = np.stack([augment(epochs[i], augment_cfg, np.random.default_rng(
                    np.random.SeedSequence(augment_cfg.rng_seed,
                                           spawn_key=(_AUGMENT_STREAM, p, int(i))))).samples
                                 for i in batch])
            x = Tensor(rows[:, None, :])
            logits = model_forward(mp, x, training=True)
            loss = weighted_ce_loss(logits, labels[batch], weights)
            mp.zero_grad()
            loss.backward()
            adam_step(mp.parameters(), state, cfg)
            losses.append(loss.item())

        result = evaluation.evaluate(mp, epochs, val_idx)
        kappa = result.summary.kappa
        row = LogRow(
            train_pass=p,
            step=state.step,
            train_loss=float(np.mean(losses)),
            val_overall_acc=result.summary.overall_accuracy,
            val_kappa=kappa,
            val_macro_f1=result.summary.macro_f1,
        )
        log.append(row)
        if kappa is not None and kappa > best_kappa:
            best_kappa = kappa
            best_pass = p
            best = mp.copy()
        if on_pass is not None:
            on_pass(p, mp)
        if stop_fn is not None and stop_fn(row):
            break

    if best is None:  # kappa never defined; fall back to the last state
        best, best_kappa, best_pass = mp.copy(), float("nan"), log[-1].train_pass
    return TrainResult(params=best, final_params=mp, log=log,
                       weights=weights, best_pass=best_pass, best_kappa=best_kappa)


def write_training_log(rows: Sequence[LogRow], path) -> None:
    """Append-only CSV: pass, step, train_loss, val_overall_acc, val_kappa, val_macro_f1."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["pass", "step", "train_loss", "val_overall_acc",
                         "val_kappa", "val_macro_f1"])
        for r in rows:
            writer.writerow([
                r.train_pass, r.step, repr(r.train_loss),
                "" if r.val_overall_acc is None else repr(r.val_overall_acc),
                "" if r.val_kappa is None else repr(r.val_kappa),
                "" if r.val_macro_f1 is None else repr(r.val_macro_f1),
            ])
