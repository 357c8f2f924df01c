"""Weighted cross-entropy objective, Adam, and the training loop.

The loss weights each sample by w[class] = clamp(ln(1/p(class)), 1, 5) with
p taken from the training split only, and averages a batch as
sum(w_i * ce_i) / sum(w_i). Shuffling and augmentation draw from separate
seeded RNG streams so runs are bit-reproducible.

Every training step computes its forward and backward pass in float32 on
working copies of the model; the master weights, the Adam moments, the
batch-norm running stats and every checkpoint stay float64 (mixed precision
with full-precision master weights, Micikevicius et al. 2018,
arXiv:1710.03740). A loss or global gradient norm that is not finite stops
the run before the update.

A step runs on both cores as two data-parallel replicas (`synced_step`):
each forwards and backpropagates one half of the batch, replica 0 in the
calling thread and replica 1 on the shared worker pool, while OpenBLAS is
held to one thread. Batch norm pools the halves' statistics, each half's
loss divides by the whole batch's weight total, and Adam gets replica 0's
gradient plus replica 1's, each cast to float64 (Goyal et al. 2017,
arXiv:1706.02677), so a step computes the one-batch step. There are always
two replicas, also on one core, so the bytes do not depend on the worker
count.
"""
from __future__ import annotations

import threading
from concurrent.futures import Executor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import autograd as ag
from . import evaluation, parallel
from .autograd import Tensor
from .edf import N_STAGES, EpochSet
from .errors import DataError, EmptySplit, SleepStageError
from .files import write_csv_atomic
from .model import ModelConfig, ModelParams, init_params, model_forward
from .preprocess import AugmentConfig, augment

_SHUFFLE_STREAM = 0
_AUGMENT_STREAM = 1


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.0005
    batch_size: int = 8
    max_passes: int = 30
    seed: int = 0
    checkpoint_every: int = 0  # passes between periodic checkpoints; 0 = off

    def __post_init__(self):
        # written as `not (in range)` so that NaN fails too
        if not 0 < self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.max_passes < 1:
            raise ValueError(f"max_passes must be >= 1, got {self.max_passes}")


def class_weights(proportions) -> np.ndarray:
    """float64 [N_STAGES] loss weights, weight[c] = min(5, max(1, ln(1/p(c)))),
    natural log.

    `proportions` is an array of label shares indexed by stage code.
    """
    props = np.asarray(proportions, dtype=np.float64)
    if props.shape != (N_STAGES,):
        raise DataError(f"need a proportion for each of the {N_STAGES} stages")
    if np.any(props <= 0):
        raise DataError(f"non-positive class proportion in {props}")
    return np.minimum(5.0, np.maximum(1.0, np.log(1.0 / props)))


def proportions_from_labels(labels: Sequence[int]) -> np.ndarray:
    codes = np.asarray(labels, dtype=np.int64)
    counts = np.bincount(codes, minlength=N_STAGES).astype(np.float64)
    if codes.size == 0 or np.any(counts == 0):
        raise DataError(
            f"training split lacks examples of some stage (counts {counts.astype(int)})")
    return counts / codes.size


def weighted_ce_loss(logits: Tensor, labels, weights: np.ndarray,
                     weight_total: float | None = None) -> Tensor:
    """Batch loss = sum_i w[c_i]*(-x_i[c_i] + logsumexp(x_i)) / sum_i w[c_i].

    With `weight_total` the sum runs over these rows and divides by that
    total instead, so the losses of a batch's row shares add up to its loss.
    """
    codes = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    if logits.ndim != 2 or logits.shape[0] != codes.size:
        raise SleepStageError(f"logits {logits.shape} vs {codes.size} labels")
    x = logits.data
    m = x.max(axis=1, keepdims=True)
    lse = (m + np.log(np.exp(x - m).sum(axis=1, keepdims=True)))[:, 0]
    w = weights[codes]
    per_sample = w * (lse - x[np.arange(codes.size), codes])
    w_total = w.sum() if weight_total is None else weight_total
    out = per_sample.sum() / w_total
    node = logits.node

    def _bw(g):
        p = np.exp(x - m)
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(codes.size), codes] -= 1.0
        node.accumulate_grad(g * p * (w / w_total)[:, None])

    return ag.make_op(np.float64(out), (logits,), _bw)


# Adam's moment decay rates and denominator guard, at the values Kingma & Ba
# (2015, arXiv:1412.6980) recommend
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class AdamState:
    """First/second moment estimates plus the shared step counter."""

    def __init__(self, params: dict[str, Tensor]):
        self.m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.step = 0


def adam_step(params: dict[str, Tensor], state: AdamState, cfg: TrainConfig) -> None:
    """One bias-corrected Adam update of the tensors by name, in place."""
    state.step += 1
    t = state.step
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    for name, p in params.items():
        if p.grad is None:
            raise SleepStageError(f"parameter {name!r} has no gradient")
        g = p.grad
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        p.data -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


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
    validation: evaluation.EvalResult  # of `params` on the validation split
    final_params: ModelParams
    log: list[LogRow]
    best_pass: int
    best_kappa: float


def synced_step(pool: Executor, replicas: Sequence[ModelParams], batch: np.ndarray,
                rows: Callable[[np.ndarray], np.ndarray], labels: np.ndarray,
                weights: np.ndarray) -> float:
    """Forward and backward of one training batch on two replicas at once.

    `batch` splits into two row shares (np.array_split, so a 1-row batch
    leaves replica 1 none). Replica 0 runs its share in the calling thread,
    replica 1 on `pool`; `rows(share)` gives a share's input rows in the
    replicas' dtype. Batch norm pools both shares' statistics (see
    `ag.ReplicaGroup`), and each share's loss divides its rows' weighted
    cross-entropy by the whole batch's weight total, so each replica's .grad
    is its share of the one-batch gradient. Returns the batch loss, replica
    0's share plus replica 1's. An exception in either replica stops the
    other at its next batch norm and reaches the caller with its own type.
    """
    shares = np.array_split(batch, 2)
    weight_total = weights[labels[batch]].sum()
    group = ag.ReplicaGroup(2)

    def run(r: int) -> float:
        try:
            with group.member(r):
                x = Tensor(rows(shares[r])[:, None, :])
                logits = model_forward(replicas[r], x, training=True)
                loss = weighted_ce_loss(logits, labels[shares[r]], weights, weight_total)
                loss.backward()
            return loss.item()
        except BaseException:
            group.abort()
            raise

    other = pool.submit(run, 1)
    try:
        loss = run(0)
    except threading.BrokenBarrierError:
        cause = other.exception()  # waits for replica 1 to stop
        if cause is None or isinstance(cause, threading.BrokenBarrierError):
            raise
        raise cause from None  # replica 1 failed first and broke the barrier
    except BaseException:
        other.exception()  # replica 1 stops at its next batch norm
        raise
    return loss + other.result()


def train(epochs: EpochSet,
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
    train_idx = np.sort(np.asarray(train_idx, dtype=np.int64))
    val_idx = np.sort(np.asarray(val_idx, dtype=np.int64))
    if train_idx.size == 0 or val_idx.size == 0:
        raise EmptySplit(f"train {train_idx.size} / validation {val_idx.size} epochs")
    if np.intersect1d(train_idx, val_idx).size:
        raise EmptySplit("train and validation splits overlap")

    labels = epochs.labels
    weights = class_weights(proportions_from_labels(labels[train_idx]))

    mp = initial.copy() if initial is not None else init_params(model_cfg, seed=cfg.seed)
    # two float32 replicas that share mp's running-stat tensors, into which
    # replica 0's training-mode forwards fold each whole batch's statistics
    # in float64. Replica 1's tensors hold replica 0's weight arrays, each
    # with its own .grad, so one cast per step updates both.
    params = mp.parameters()
    work = {name: Tensor(t.data.astype(np.float32), requires_grad=True)
            for name, t in params.items()}
    replicas = [ModelParams(mp.cfg, mp.tensors | work),
                ModelParams(mp.cfg, mp.tensors | {name: Tensor(t.data, requires_grad=True)
                                                  for name, t in work.items()})]
    triples = list(zip(params.values(), *(r.parameters().values() for r in replicas)))
    state = AdamState(params)
    shuffle_rng = np.random.default_rng(
        np.random.SeedSequence(cfg.seed, spawn_key=(_SHUFFLE_STREAM,)))

    best: ModelParams | None = None
    best_result: evaluation.EvalResult | None = None
    best_kappa = -np.inf
    best_pass = -1
    log: list[LogRow] = []

    for p in range(1, cfg.max_passes + 1):
        order = train_idx[shuffle_rng.permutation(train_idx.size)]
        losses = []

        def rows(share: np.ndarray) -> np.ndarray:
            # one float32 gather (an EpochSet's rows are float32, from the
            # cache or from normalize, so no cast there); each row is
            # augmented in float64 from its stored values and rounded in
            out = epochs.samples[share].astype(np.float32, copy=False)
            if augment_cfg is not None:
                for j, i in enumerate(share):
                    out[j] = augment(epochs.samples[i].astype(np.float64), augment_cfg,
                                     np.random.default_rng(np.random.SeedSequence(
                                         augment_cfg.rng_seed,
                                         spawn_key=(_AUGMENT_STREAM, p, int(i)))))
            return out

        with parallel.pool() as pool:
            for start in range(0, order.size, cfg.batch_size):
                batch = order[start:start + cfg.batch_size]
                for master, w0, w1 in triples:
                    w0.data[...] = master.data
                    w0.zero_grad()
                    w1.zero_grad()
                loss = synced_step(pool, replicas, batch, rows, labels, weights)
                for master, w0, w1 in triples:
                    # replica 0's gradient plus replica 1's, each in float64
                    master.zero_grad()
                    if w0.grad is not None:
                        master.accumulate_grad(w0.grad.astype(np.float64))
                        master.accumulate_grad(w1.grad)
                norm = np.sqrt(sum(np.vdot(m.grad, m.grad) for m, _, _ in triples
                                   if m.grad is not None))
                if not (np.isfinite(loss) and np.isfinite(norm)):
                    raise SleepStageError(f"training stopped at pass {p}, step {state.step + 1}: "
                                          f"loss {loss}, gradient norm {norm}")
                adam_step(params, state, cfg)
                losses.append(loss)

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
            best, best_result = mp.copy(), result
        if on_pass is not None:
            on_pass(p, mp)
        if stop_fn is not None and stop_fn(row):
            break

    if best is None:  # kappa never defined; fall back to the last state
        best, best_kappa, best_pass = mp.copy(), float("nan"), log[-1].train_pass
        best_result = result
    return TrainResult(params=best, validation=best_result, final_params=mp, log=log,
                       best_pass=best_pass, best_kappa=best_kappa)


def write_training_log(rows: Sequence[LogRow], path) -> None:
    """Write the log as CSV: pass, step, train_loss, val_overall_acc, val_kappa,
    val_macro_f1; an existing file is replaced atomically."""
    write_csv_atomic(path, ["pass", "step", "train_loss", "val_overall_acc",
                            "val_kappa", "val_macro_f1"],
                     ([r.train_pass, r.step, repr(r.train_loss),
                       "" if r.val_overall_acc is None else repr(r.val_overall_acc),
                       "" if r.val_kappa is None else repr(r.val_kappa),
                       "" if r.val_macro_f1 is None else repr(r.val_macro_f1)]
                      for r in rows))
