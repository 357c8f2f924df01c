"""Splits, confusion-matrix accumulation, and the metric suite.

Per-stage metrics are one-vs-rest accuracy/recall/precision/F1 in percent;
summaries add overall accuracy (trace/total), Cohen's kappa with
p_e = sum(row_c * col_c)/n^2, unweighted mean accuracy/recall, and macro-F1
as a fraction. Division by zero reports a metric as absent, never as 0.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import autograd as ag
from . import parallel
from .autograd import Tensor
from .edf import N_STAGES, EpochSet, StageLabel
from .errors import DataError, EmptySplit, SingleClassPresent, SleepStageError
from .model import ModelConfig, ModelParams, inference_params, model_forward

# the conventional published layout: rows W,R,N1,N2,N3 with columns N3..W
DISPLAY_ROW_ORDER = [StageLabel.W, StageLabel.R, StageLabel.N1, StageLabel.N2, StageLabel.N3]
DISPLAY_COL_ORDER = [StageLabel.N3, StageLabel.N2, StageLabel.N1, StageLabel.R, StageLabel.W]

_INT64_MAX = int(np.iinfo(np.int64).max)


class ConfusionMatrix:
    """5x5 integer counts, rows = true stage code, columns = predicted code."""

    def __init__(self, counts: np.ndarray | None = None):
        if counts is None:
            self.counts = np.zeros((N_STAGES, N_STAGES), dtype=np.int64)
            return
        # each cell as given, so that no bool, float or huge integer is cast
        cells = np.array(counts, dtype=object)
        if cells.shape != (N_STAGES, N_STAGES):
            raise ValueError(f"bad confusion counts shape {cells.shape}")
        for v in cells.flat:
            if (isinstance(v, (bool, np.bool_)) or not isinstance(v, (int, np.integer))
                    or not 0 <= v <= _INT64_MAX):
                raise ValueError(f"confusion count {v!r} is not an integer in 0..{_INT64_MAX}")
        total = sum(int(v) for v in cells.flat)
        if total > _INT64_MAX:  # so no row, column or total sum wraps around
            raise ValueError(f"confusion counts total {total} exceeds {_INT64_MAX}")
        self.counts = cells.astype(np.int64)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @classmethod
    def from_pairs(cls, y_true: Sequence[int], y_pred: Sequence[int]) -> "ConfusionMatrix":
        """Count (true, predicted) code pairs; a code outside 0..4 is a ValueError."""
        t = np.asarray(y_true, dtype=np.int64)
        p = np.asarray(y_pred, dtype=np.int64)
        if t.shape != p.shape:
            raise ValueError(f"{t.size} true codes against {p.size} predicted codes")
        for codes in (t, p):
            bad = codes[(codes < 0) | (codes >= N_STAGES)]
            if bad.size:
                raise ValueError(f"stage code {int(bad[0])} outside 0..{N_STAGES - 1}")
        pairs = np.bincount((N_STAGES * t + p).ravel(), minlength=N_STAGES * N_STAGES)
        return cls(pairs.reshape(N_STAGES, N_STAGES))

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
        raise SleepStageError("empty confusion matrix")
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
        raise SleepStageError("empty confusion matrix")
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
class SplitConfig:
    """Epoch-level k-fold (all folds, or only `fold`) or subject-level hold-out."""

    kind: str = "kfold"            # "kfold" | "holdout"
    k: int = 5
    ratio: float = 0.8
    fold: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("kfold", "holdout"):
            raise ValueError(f"split.kind must be kfold or holdout, got {self.kind!r}")
        if self.k < 2:  # one fold would leave nothing to train on
            raise ValueError(f"split.k must be >= 2, got {self.k}")
        if not 0.0 < self.ratio < 1.0:
            raise ValueError(f"split.ratio must lie in (0, 1), got {self.ratio!r}")
        if self.fold is not None and self.kind != "kfold":
            raise ValueError("split.fold applies to k-fold splits")
        if self.fold is not None and not 0 <= self.fold < self.k:
            raise ValueError(f"split.fold must lie in [0, {self.k}), got {self.fold}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    def used_fields(self) -> tuple[str, ...]:
        """The fields this kind of split reads; the others are ignored."""
        return ("kind", "seed", "k", "fold") if self.kind == "kfold" else ("kind", "seed", "ratio")


def kfold_split(n_epochs: int, k: int = 5, seed: int = 0) -> list[np.ndarray]:
    """Uniform random epoch-level partition into k sorted int64 index arrays,
    whose sizes differ by at most 1."""
    if n_epochs < k:
        raise DataError(f"{n_epochs} epochs cannot fill {k} folds")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return [np.sort(chunk) for chunk in np.array_split(rng.permutation(n_epochs), k)]


def holdout_split(subjects: Sequence[str], ratio: float = 0.8,
                  seed: int = 0) -> tuple[list[str], list[str]]:
    """Subject-level split into sorted (train, evaluation) subject lists; the
    train side takes floor(ratio * n), and both sides at least one."""
    uniq = sorted(set(subjects))
    if len(uniq) < 2:
        raise DataError(f"hold-out needs >= 2 subjects, got {len(uniq)}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    perm = rng.permutation(len(uniq))
    n_train = min(max(1, int(np.floor(ratio * len(uniq)))), len(uniq) - 1)
    return sorted(uniq[i] for i in perm[:n_train]), sorted(uniq[i] for i in perm[n_train:])


def plan_folds(epochs: EpochSet, split: SplitConfig):
    """The split protocol as a list of folds to train or evaluate.

    Returns (parts, [(name, train_idx, val_idx, fold_config)], desc): `parts`
    is the partition split.json records (k-fold's k index arrays, hold-out's
    two subject lists); the indices are sorted int64 arrays; `fold_config` is
    the split of that one fold, as the checkpoint manifest records it, and
    `desc` goes into metrics.json. k-fold runs every fold, or only
    `split.fold` when set, and trains fold i on the other parts; hold-out is
    one fold.
    """
    desc = {name: getattr(split, name) for name in split.used_fields() if name != "fold"}
    if split.kind == "kfold":
        parts = kfold_split(len(epochs), k=split.k, seed=split.seed)
        folds = [split.fold] if split.fold is not None else list(range(split.k))
        plan = [(f"fold {i}", np.sort(np.concatenate(parts[:i] + parts[i + 1:])), parts[i],
                 replace(split, fold=i)) for i in folds]
        return parts, plan, {**desc, "folds": folds}
    parts = holdout_split(np.unique(epochs.subjects).tolist(), split.ratio, split.seed)
    train_idx, val_idx = (np.flatnonzero(np.isin(epochs.subjects, side)) for side in parts)
    return parts, [("holdout", train_idx, val_idx, split)], desc


# --- ROC / PR curves ---

@dataclass(frozen=True)
class CurveSet:
    roc_points: np.ndarray  # float64 [n, 2] of (fpr, tpr)
    pr_points: np.ndarray   # float64 [n, 2] of (recall, precision)
    roc_auc: float
    pr_auc: float


def _trapezoid(points: np.ndarray) -> float:
    """Trapezoidal area summed left to right (cumsum is sequential, where
    np.sum is pairwise), so it equals a running loop over the points."""
    x, y = points[:, 0], points[:, 1]
    return float(np.cumsum(0.5 * np.diff(x) * (y[1:] + y[:-1]))[-1])


def roc_pr_curves(scores: np.ndarray, labels: Sequence[int],
                  classes: Sequence[int] | None = None) -> dict[int, CurveSet]:
    """One-vs-rest curves by threshold sweep over distinct scores.

    Points are emitted at every distinct threshold (descending), anchored at
    (0,0)/(1,1) for ROC and (0,1) for PR; areas are trapezoidal.
    """
    scores = np.asarray(scores, dtype=np.float64)
    codes = np.asarray(labels, dtype=np.int64)
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
        tp = cum_tp[idx]
        above = idx + 1  # rows at or above each threshold, tp + fp
        roc = np.empty((idx.size + 1, 2))
        roc[0] = (0.0, 0.0)
        roc[1:, 0] = (above - tp) / neg
        roc[1:, 1] = tp / pos
        pr = np.empty((idx.size + 1, 2))
        pr[0] = (0.0, 1.0)
        pr[1:, 0] = roc[1:, 1]
        pr[1:, 1] = tp / above
        out[int(c)] = CurveSet(
            roc_points=roc,
            pr_points=pr,
            roc_auc=_trapezoid(roc),
            pr_auc=_trapezoid(pr),
        )
    return out


# --- model evaluation ---

@dataclass
class EvalResult:
    cm: ConfusionMatrix
    summary: SummaryMetrics
    y_true: np.ndarray
    y_pred: np.ndarray
    probabilities: np.ndarray


# Bytes of the widest float32 activation, [rows, branch_channels,
# input_length], that one inference forward may hold. At 1.5 MiB a block's
# front-end tensors stay in a 2 MB per-core L2 cache instead of streaming
# from memory: on two such cores (numpy 2.4.6, OpenBLAS 0.3.31) the default
# model ran 1.4x as fast in its 4-row blocks as in 32-row ones.
BLOCK_BYTES = 3 << 19


def block_rows(cfg: ModelConfig) -> int:
    """Rows one inference forward takes at most: BLOCK_BYTES over the bytes
    of a row's widest float32 activation, and at least 1."""
    return max(1, BLOCK_BYTES // (cfg.branch_channels * cfg.input_length * 4))


# Executor.map holds a future (about 1.8 KB) per block until its result is
# read, so blocks are mapped this many at a time: 40 MB of futures for a
# 91k-row fold becomes 2 MB.
_MAP_BLOCKS = 1024


def _run_blocks(forward, starts: range) -> None:
    """forward(start) for every start: on the shared worker pool with
    OpenBLAS at one thread (see `parallel`), or inline in the calling thread
    when there is one core, one block, or no OpenBLAS thread setter, where
    the pool would only oversubscribe the cores. A block's exception reaches
    the caller and cancels the blocks not yet started; one that another
    worker is running finishes on its own, its rows unused."""
    if parallel.WORKERS < 2 or len(starts) < 2 or parallel.openblas_thread_calls() is None:
        for start in starts:
            forward(start)
        return
    with parallel.pool() as pool:
        for lo in range(0, len(starts), _MAP_BLOCKS):
            for _ in pool.map(forward, starts[lo:lo + _MAP_BLOCKS]):
                pass


def predict_probabilities(mp: ModelParams, samples: np.ndarray, batch_size: int = 32,
                          index: np.ndarray | None = None) -> np.ndarray:
    """Eval-mode softmax probabilities [N, N_STAGES] for sample rows.

    The rows are `samples[index]`, or all of `samples` [N, input_length]
    when `index` is None; each forward gathers only its own rows, so the
    subset is never copied whole. A forward takes at most `batch_size` rows,
    and no more than `block_rows(mp.cfg)`; the blocks run on the worker
    pool (see `_run_blocks`) and each writes its own rows of the result. It
    runs in float32 on `inference_params(mp)`, with every batch norm folded
    into the layer before it; that copy records no backward graph, and `mp`
    is left as it was. The softmax of the float32 logits is taken in float64.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    index = np.arange(len(samples)) if index is None else np.asarray(index, dtype=np.int64)
    folded = inference_params(mp)
    step = min(batch_size, block_rows(mp.cfg))
    probs = np.empty((index.size, N_STAGES), dtype=np.float64)

    def forward(start: int) -> None:
        rows = samples[index[start:start + step]]
        x = Tensor(rows[:, None, :].astype(np.float32, copy=False))
        logits = model_forward(folded, x, training=False)
        probs[start:start + step] = ag.softmax(Tensor(logits.data.astype(np.float64))).data

    _run_blocks(forward, range(0, index.size, step))
    return probs


def evaluate(mp: ModelParams, epochs: EpochSet,
             indices: Sequence[int] | None = None,
             batch_size: int = 32) -> EvalResult:
    """Argmax staging (ties break to the lowest class code) plus every metric.

    Output sequences are ordered by (subject, row) so a hypnogram can be
    rendered directly: a subject's rows are in time order.
    """
    chosen = np.arange(len(epochs)) if indices is None else np.asarray(indices, dtype=np.int64)
    if not chosen.size:
        raise EmptySplit("no epochs to evaluate")
    chosen = chosen[np.lexsort((chosen, epochs.subjects[chosen]))]
    probs = predict_probabilities(mp, epochs.samples, batch_size=batch_size, index=chosen)
    y_pred = probs.argmax(axis=1)
    y_true = epochs.labels[chosen]
    cm = ConfusionMatrix.from_pairs(y_true, y_pred)
    return EvalResult(
        cm=cm,
        summary=summary_metrics(cm),
        y_true=y_true,
        y_pred=y_pred,
        probabilities=probs,
    )
