"""Splits, confusion-matrix accumulation, and the metric suite.

Per-stage metrics are one-vs-rest accuracy/recall/precision/F1 in percent;
summaries add overall accuracy (trace/total), Cohen's kappa with
p_e = sum(row_c * col_c)/n^2, unweighted mean accuracy/recall, and macro-F1
as a fraction. Division by zero reports a metric as absent, never as 0.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .edf import EpochSet, LabeledEpoch, StageLabel
from .errors import (
    EmptySplit,
    SingleClassPresent,
    TooFewSamples,
    TooFewSubjects,
    UndefinedMetric,
)
from .model import ModelParams, model_forward

N_STAGES = 5

# the conventional published layout: rows W,R,N1,N2,N3 with columns N3..W
DISPLAY_ROW_ORDER = [StageLabel.W, StageLabel.R, StageLabel.N1, StageLabel.N2, StageLabel.N3]
DISPLAY_COL_ORDER = [StageLabel.N3, StageLabel.N2, StageLabel.N1, StageLabel.R, StageLabel.W]


class ConfusionMatrix:
    """5x5 integer counts, rows = true stage code, columns = predicted code."""

    def __init__(self, counts: np.ndarray | None = None):
        if counts is None:
            self.counts = np.zeros((N_STAGES, N_STAGES), dtype=np.int64)
        else:
            counts = np.asarray(counts, dtype=np.int64)
            if counts.shape != (N_STAGES, N_STAGES) or np.any(counts < 0):
                raise ValueError(f"bad confusion counts shape {counts.shape}")
            self.counts = counts.copy()

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def accumulate(self, true, pred) -> "ConfusionMatrix":
        self.counts[int(true), int(pred)] += 1
        return self

    @classmethod
    def from_pairs(cls, y_true: Iterable[int], y_pred: Iterable[int]) -> "ConfusionMatrix":
        cm = cls()
        for t, p in zip(y_true, y_pred):
            cm.counts[int(t), int(p)] += 1
        return cm

    @classmethod
    def from_display(cls, rows: Sequence[Sequence[int]]) -> "ConfusionMatrix":
        """Build from the published layout (rows W,R,N1,N2,N3 x cols N3..W)."""
        m = np.asarray(rows, dtype=np.int64)
        if m.shape != (N_STAGES, N_STAGES):
            raise ValueError(f"display matrix must be 5x5, got {m.shape}")
        return cls(m[::-1, :])

    def to_display(self) -> np.ndarray:
        return self.counts[::-1, :].copy()

    def merged(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        return ConfusionMatrix(self.counts + other.counts)

    def __eq__(self, other) -> bool:
        return isinstance(other, ConfusionMatrix) and np.array_equal(self.counts, other.counts)


@dataclass(frozen=True)
class StageMetrics:
    """One-vs-rest percentages; None marks an undefined (0/0) value."""

    accuracy: float | None
    recall: float | None
    precision: float | None
    f1: float | None


@dataclass(frozen=True)
class SummaryMetrics:
    overall_accuracy: float        # percent
    kappa: float | None            # dimensionless in [-1, 1]
    mean_accuracy: float | None    # percent, unweighted over defined stages
    mean_recall: float | None      # percent
    macro_f1: float | None         # fraction
    undefined_stages: tuple[str, ...] = ()


def _ratio(num: int, den: int) -> float | None:
    return None if den == 0 else 100.0 * num / den


def stage_metrics(cm: ConfusionMatrix, stage) -> StageMetrics:
    """Accuracy, recall, precision and F1 for one stage against the rest."""
    if cm.total == 0:
        raise UndefinedMetric("empty confusion matrix")
    c = int(stage)
    tp = int(cm.counts[c, c])
    fn = int(cm.counts[c, :].sum()) - tp
    fp = int(cm.counts[:, c].sum()) - tp
    tn = cm.total - tp - fn - fp
    return StageMetrics(
        accuracy=_ratio(tp + tn, cm.total),
        recall=_ratio(tp, tp + fn),
        precision=_ratio(tp, tp + fp),
        f1=_ratio(2 * tp, 2 * tp + fp + fn),
    )


def summary_metrics(cm: ConfusionMatrix) -> SummaryMetrics:
    if cm.total == 0:
        raise UndefinedMetric("empty confusion matrix")
    n = cm.total
    p0 = float(np.trace(cm.counts)) / n
    rows = cm.counts.sum(axis=1).astype(np.float64)
    cols = cm.counts.sum(axis=0).astype(np.float64)
    pe = float(rows @ cols) / (n * n)
    kappa = None if pe == 1.0 else (p0 - pe) / (1.0 - pe)

    per_stage = {s: stage_metrics(cm, s) for s in StageLabel}
    undefined = tuple(s.name for s, m in per_stage.items()
                      if None in (m.accuracy, m.recall, m.precision, m.f1))

    def mean_over(attr: str, scale: float = 1.0) -> float | None:
        vals = [getattr(m, attr) for m in per_stage.values() if getattr(m, attr) is not None]
        return None if not vals else scale * float(np.mean(vals))

    return SummaryMetrics(
        overall_accuracy=100.0 * p0,
        kappa=kappa,
        mean_accuracy=mean_over("accuracy"),
        mean_recall=mean_over("recall"),
        macro_f1=mean_over("f1", scale=0.01),
        undefined_stages=undefined,
    )


# --- splits ---

@dataclass(frozen=True)
class FoldSplit:
    """Partition of the evaluation unit: epoch indices for k-fold,
    subject ids for hold-out."""

    kind: str                      # "kfold" | "holdout"
    parts: tuple[tuple, ...]
    seed: int

    def fold(self, i: int) -> tuple[tuple, tuple]:
        """(train_units, validation_units) for fold i (k-fold only)."""
        if self.kind != "kfold":
            raise ValueError("fold() applies to k-fold splits")
        val = self.parts[i]
        train = tuple(sorted(set().union(*[set(p) for j, p in enumerate(self.parts) if j != i])))
        return train, val

    @property
    def train_subjects(self) -> tuple:
        if self.kind != "holdout":
            raise ValueError("train_subjects applies to hold-out splits")
        return self.parts[0]

    @property
    def eval_subjects(self) -> tuple:
        if self.kind != "holdout":
            raise ValueError("eval_subjects applies to hold-out splits")
        return self.parts[1]


def kfold_split(n_epochs: int, k: int = 5, seed: int = 0) -> FoldSplit:
    """Uniform random epoch-level partition; fold sizes differ by at most 1."""
    if n_epochs < k:
        raise TooFewSamples(f"{n_epochs} epochs cannot fill {k} folds")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    perm = rng.permutation(n_epochs)
    parts = tuple(tuple(int(i) for i in sorted(chunk))
                  for chunk in np.array_split(perm, k))
    return FoldSplit(kind="kfold", parts=parts, seed=seed)


def holdout_split(subjects: Sequence[str], ratio: float = 0.8, seed: int = 0) -> FoldSplit:
    """Subject-level split; train side takes floor(ratio * n), both sides >= 1."""
    uniq = sorted(set(subjects))
    if len(uniq) < 2:
        raise TooFewSubjects(f"hold-out needs >= 2 subjects, got {len(uniq)}")
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"ratio {ratio} outside (0, 1)")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    perm = rng.permutation(len(uniq))
    n_train = min(max(1, int(np.floor(ratio * len(uniq)))), len(uniq) - 1)
    train = tuple(sorted(uniq[i] for i in perm[:n_train]))
    evals = tuple(sorted(uniq[i] for i in perm[n_train:]))
    return FoldSplit(kind="holdout", parts=(train, evals), seed=seed)


# --- ROC / PR curves ---

@dataclass(frozen=True)
class CurveSet:
    roc_points: tuple[tuple[float, float], ...]  # (fpr, tpr)
    pr_points: tuple[tuple[float, float], ...]   # (recall, precision)
    roc_auc: float
    pr_auc: float


def _trapezoid(points: Sequence[tuple[float, float]]) -> float:
    area = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        area += 0.5 * (x1 - x0) * (y1 + y0)
    return area


def roc_pr_curves(scores: np.ndarray, labels: Sequence[int],
                  classes: Sequence[int] | None = None) -> dict[int, CurveSet]:
    """One-vs-rest curves by threshold sweep over distinct scores.

    Points are emitted at every distinct threshold (descending), anchored at
    (0,0)/(1,1) for ROC and (0,1) for PR; areas are trapezoidal.
    """
    scores = np.asarray(scores, dtype=np.float64)
    codes = np.asarray([int(l) for l in labels])
    if scores.ndim != 2 or scores.shape[0] != codes.size:
        raise ValueError(f"scores {scores.shape} vs {codes.size} labels")
    out: dict[int, CurveSet] = {}
    for c in (classes if classes is not None else range(scores.shape[1])):
        y = (codes == int(c)).astype(np.int64)
        pos = int(y.sum())
        neg = int(y.size - pos)
        if pos == 0 or neg == 0:
            raise SingleClassPresent(
                f"class {int(c)} has {pos} positives / {neg} negatives")
        s = scores[:, int(c)]
        order = np.argsort(-s, kind="stable")
        sorted_s = s[order]
        cum_tp = np.cumsum(y[order])
        idx = np.flatnonzero(np.diff(sorted_s, append=-np.inf))  # last index per distinct value
        roc = [(0.0, 0.0)]
        pr = [(0.0, 1.0)]
        for i in idx:
            tp = int(cum_tp[i])
            fp = (i + 1) - tp
            roc.append((fp / neg, tp / pos))
            pr.append((tp / pos, tp / (tp + fp)))
        out[int(c)] = CurveSet(
            roc_points=tuple(roc),
            pr_points=tuple(pr),
            roc_auc=_trapezoid(roc),
            pr_auc=_trapezoid(pr),
        )
    return out


# --- model evaluation ---

@dataclass
class EvalResult:
    cm: ConfusionMatrix
    per_stage: dict[str, StageMetrics]
    summary: SummaryMetrics
    y_true: np.ndarray
    y_pred: np.ndarray
    probabilities: np.ndarray
    order: list[tuple[str, int]] = field(default_factory=list)  # (subject, epoch_index)


def predict_probabilities(mp: ModelParams, batches: np.ndarray,
                          batch_size: int = 32) -> np.ndarray:
    """Eval-mode softmax probabilities for [N, input_length] sample rows."""
    probs = []
    with ag.no_grad():
        for start in range(0, batches.shape[0], batch_size):
            x = Tensor(batches[start:start + batch_size][:, None, :])
            logits = model_forward(mp, x, training=False)
            probs.append(ag.softmax(logits).data)
    return np.concatenate(probs, axis=0)


def evaluate(mp: ModelParams, epochs: EpochSet | Sequence[LabeledEpoch],
             indices: Sequence[int] | None = None,
             batch_size: int = 32) -> EvalResult:
    """Argmax staging (ties break to the lowest class code) plus every metric.

    Output sequences are ordered by (subject, epoch_index) so a hypnogram can
    be rendered directly.
    """
    epochs = EpochSet.of(epochs)
    chosen = np.arange(len(epochs)) if indices is None else np.asarray(indices, dtype=np.int64)
    if not chosen.size:
        raise EmptySplit("no epochs to evaluate")
    # stable, so ties keep their order in `indices`
    chosen = chosen[np.lexsort((epochs.epoch_index[chosen], epochs.subjects[chosen]))]
    x = epochs.samples[chosen].astype(np.float64)
    probs = predict_probabilities(mp, x, batch_size=batch_size)
    y_pred = probs.argmax(axis=1)
    y_true = epochs.labels[chosen]
    cm = ConfusionMatrix.from_pairs(y_true, y_pred)
    return EvalResult(
        cm=cm,
        per_stage={s.name: stage_metrics(cm, s) for s in StageLabel},
        summary=summary_metrics(cm),
        y_true=y_true,
        y_pred=y_pred,
        probabilities=probs,
        order=list(zip(epochs.subjects[chosen].tolist(), epochs.epoch_index[chosen].tolist())),
    )
