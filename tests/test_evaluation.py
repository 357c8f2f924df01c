"""Metric suite against published reference tables, splits, ROC/PR curves."""
import itertools
import os
import re
import signal
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from sleepstage import autograd as ag
from sleepstage import cache, evaluation, parallel
from sleepstage.autograd import Tensor
from sleepstage.edf import StageLabel
from sleepstage.errors import DataError, EmptySplit, SingleClassPresent, SleepStageError
from sleepstage.evaluation import (
    ConfusionMatrix,
    SplitConfig,
    evaluate,
    holdout_split,
    kfold_split,
    plan_folds,
    predict_probabilities,
    roc_pr_curves,
    stage_metrics,
    summary_metrics,
)
from sleepstage.model import ModelConfig, init_params, model_forward

import reference_results as ref
from helpers import (
    batch_norms,
    epoch_set,
    from_display,
    graph_free,
    micro_model_config,
    randomize_batch_norms,
    reference_roc_pr_curves,
    sine_epochs,
    to_display,
)

RNG = np.random.default_rng(31)

STAGE_BY_NAME = {s.name: s for s in StageLabel}


class TestConfusionMatrix:
    def test_accumulate_single(self):
        cm = ConfusionMatrix.from_pairs([StageLabel.W], [StageLabel.W])
        assert cm.counts[4, 4] == 1
        assert cm.total == 1

    def test_total_counts_calls(self):
        pairs = RNG.integers(0, 5, size=(100, 2))
        cm = ConfusionMatrix.from_pairs(pairs[:, 0], pairs[:, 1])
        assert cm.total == 100

    def test_display_round_trip(self):
        cm = from_display(ref.SLEEP_EDF_5FOLD_CM)
        np.testing.assert_array_equal(to_display(cm), np.asarray(ref.SLEEP_EDF_5FOLD_CM))

    def test_display_orientation(self):
        cm = from_display(ref.SLEEP_EDF_5FOLD_CM)
        # first display row is true W; its last column is predicted W
        assert cm.counts[int(StageLabel.W), int(StageLabel.W)] == 7792
        assert cm.counts[int(StageLabel.N1), int(StageLabel.N1)] == 364

    def test_accumulating_stream_reproduces_table(self):
        cm_ref = from_display(ref.SLEEP_EDF_5FOLD_CM)
        stream = [(t, p) for t in range(5) for p in range(5)
                  for _ in range(int(cm_ref.counts[t, p]))]
        y_true, y_pred = zip(*stream)
        assert ConfusionMatrix.from_pairs(y_true, y_pred) == cm_ref

    def test_merge_adds(self):
        a = ConfusionMatrix.from_pairs([0, 1], [0, 2])
        b = ConfusionMatrix.from_pairs([0], [0])
        assert a.merged(b).counts[0, 0] == 2

    def test_from_pairs_counts_like_accumulate(self):
        y_true, y_pred = RNG.integers(0, 5, size=(2, 2000))
        counts = np.zeros((5, 5), dtype=np.int64)
        np.add.at(counts, (y_true, y_pred), 1)
        loop = ConfusionMatrix(counts)
        assert ConfusionMatrix.from_pairs(y_true, y_pred) == loop
        assert ConfusionMatrix.from_pairs(y_true.tolist(),
                                          [StageLabel(int(p)) for p in y_pred]) == loop
        assert ConfusionMatrix.from_pairs([], []).total == 0

    @pytest.mark.parametrize("cell", [1.5, 1e30, True, np.float64(2.0), -1, 1 << 63, "3", None])
    def test_counts_must_be_non_negative_int64(self, cell):
        """A cell that is not a count is refused by its value, and not cast first."""
        counts = [[1] * 5 for _ in range(5)]
        counts[2][3] = cell
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"^confusion count {re.escape(repr(cell))} is not"):
                ConfusionMatrix(counts)

    def test_counts_total_must_fit_int64(self):
        """Cells that each fit int64 but sum past it would wrap the row sums
        the metrics and the heatmap shading divide by."""
        for cell in (1 << 62, np.int64(1 << 62)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # numpy scalars would wrap with a warning
                with pytest.raises(ValueError, match=r"^confusion counts total \d+ exceeds"):
                    ConfusionMatrix([[cell] * 5] * 5)
        a = ConfusionMatrix(np.full((5, 5), (1 << 63) // 50))
        with pytest.raises(ValueError, match="total"):
            a.merged(a).merged(a)

    def test_counts_accept_numpy_integers(self):
        counts = np.arange(25, dtype=np.uint8).reshape(5, 5)
        cm = ConfusionMatrix(counts)
        assert cm.counts.dtype == np.int64 and cm.counts.tolist() == counts.tolist()
        top = np.zeros((5, 5), dtype=np.int64)
        top[4, 0] = np.iinfo(np.int64).max
        assert ConfusionMatrix(top).total == np.iinfo(np.int64).max

    @pytest.mark.parametrize("y_true, y_pred, code", [
        ([-1], [0], -1),          # used to wrap around to row W
        ([0, 1], [0, -5], -5),
        ([0], [5], 5),            # used to be IndexError
        ([3, 9, 2], [0, 1, 2], 9),
    ])
    def test_from_pairs_rejects_codes_outside_stages(self, y_true, y_pred, code):
        with pytest.raises(ValueError, match=rf"stage code {code} outside 0\.\.4"):
            ConfusionMatrix.from_pairs(y_true, y_pred)

    def test_from_pairs_rejects_unequal_lengths(self):
        with pytest.raises(ValueError, match="2 true codes against 1"):
            ConfusionMatrix.from_pairs([0, 1], [0])


class TestStageMetricsAgainstPublished:
    @pytest.mark.parametrize("bench", sorted(ref.BENCHMARKS))
    def test_exact_fraction_oracle(self, bench):
        """Package output must equal exact arithmetic on the matrix."""
        display_cm, _, _ = ref.BENCHMARKS[bench]
        cm = from_display(display_cm)
        for stage_name in ref.DISPLAY_ROWS:
            exact = ref.exact_stage_values(display_cm, stage_name)
            got = stage_metrics(cm, STAGE_BY_NAME[stage_name])
            for metric in ("accuracy", "recall", "precision", "f1"):
                assert getattr(got, metric) == pytest.approx(float(exact[metric]),
                                                             abs=1e-9)

    @pytest.mark.parametrize(
        "bench,stage,metric",
        [pytest.param(b, s, m,
                      marks=pytest.mark.xfail(
                          (b, s, m) in ref.INCONSISTENT_CELLS,
                          reason="published value disagrees with exact arithmetic "
                                 "on the published matrix itself"),
                      id=f"{b}-{s}-{m}")
         for b in sorted(ref.BENCHMARKS)
         for s in ref.DISPLAY_ROWS
         for m in ("accuracy", "recall", "precision", "f1")])
    def test_published_values_within_rounding(self, bench, stage, metric):
        display_cm, stage_table, _ = ref.BENCHMARKS[bench]
        cm = from_display(display_cm)
        got = getattr(stage_metrics(cm, STAGE_BY_NAME[stage]),
                      metric)
        printed = stage_table[stage][("accuracy", "recall", "precision", "f1").index(metric)]
        assert got == pytest.approx(printed, abs=0.0100001)

    def test_perfect_classifier(self):
        cm = ConfusionMatrix(np.diag([10, 20, 30, 40, 50]))
        for s in StageLabel:
            m = stage_metrics(cm, s)
            assert (m.accuracy, m.recall, m.precision, m.f1) == (100.0, 100.0, 100.0, 100.0)

    def test_undefined_reported_as_absent(self):
        counts = np.zeros((5, 5), dtype=int)
        counts[4, 4] = 10  # only W present and predicted
        cm = ConfusionMatrix(counts)
        m = stage_metrics(cm, StageLabel.N1)
        assert m.recall is None        # no true N1
        assert m.precision is None     # no predicted N1
        assert m.f1 is None
        assert m.accuracy == 100.0     # all agree trivially

    def test_empty_matrix_raises(self):
        with pytest.raises(SleepStageError, match="^empty confusion matrix$"):
            stage_metrics(ConfusionMatrix(), StageLabel.W)


class TestSummaryMetricsAgainstPublished:
    @pytest.mark.parametrize("bench", sorted(ref.BENCHMARKS))
    def test_exact_fraction_oracle(self, bench):
        display_cm, _, _ = ref.BENCHMARKS[bench]
        exact = ref.exact_summary_values(display_cm)
        got = summary_metrics(from_display(display_cm))
        assert got.overall_accuracy == pytest.approx(float(exact["overall_accuracy"]), abs=1e-9)
        assert got.kappa == pytest.approx(float(exact["kappa"]), abs=1e-12)
        assert got.mean_accuracy == pytest.approx(float(exact["mean_accuracy"]), abs=1e-9)
        assert got.mean_recall == pytest.approx(float(exact["mean_recall"]), abs=1e-9)
        assert got.macro_f1 == pytest.approx(float(exact["macro_f1"]), abs=1e-11)

    @pytest.mark.parametrize(
        "bench,field",
        [pytest.param(b, f,
                      marks=pytest.mark.xfail(
                          (b, f) in ref.INCONSISTENT_SUMMARY,
                          reason="published value disagrees with exact arithmetic "
                                 "on the published matrix itself"),
                      id=f"{b}-{f}")
         for b in sorted(ref.BENCHMARKS)
         for f in ("mean_recall", "mean_accuracy", "overall_accuracy", "kappa", "macro_f1")])
    def test_published_summaries_within_rounding(self, bench, field):
        display_cm, _, summary = ref.BENCHMARKS[bench]
        got = summary_metrics(from_display(display_cm))
        printed = dict(zip(("mean_recall", "mean_accuracy", "overall_accuracy",
                            "kappa", "macro_f1"), summary))[field]
        tol = 0.0005 if field in ("kappa", "macro_f1") else 0.0100001
        assert getattr(got, field) == pytest.approx(printed, abs=tol)

    def test_perfect_agreement_kappa_one(self):
        counts = np.zeros((5, 5), dtype=int)
        counts[0, 0] = 50
        counts[1, 1] = 50
        cm = ConfusionMatrix(counts)
        assert summary_metrics(cm).kappa == pytest.approx(1.0)

    def test_kappa_permutation_invariance(self):
        counts = RNG.integers(0, 200, size=(5, 5))
        base = summary_metrics(ConfusionMatrix(counts)).kappa
        for _ in range(10):
            perm = RNG.permutation(5)
            permuted = counts[np.ix_(perm, perm)]
            assert summary_metrics(ConfusionMatrix(permuted)).kappa == pytest.approx(
                base, abs=1e-12)

    def test_overall_accuracy_recall_identity(self):
        counts = RNG.integers(1, 300, size=(5, 5))
        cm = ConfusionMatrix(counts)
        summary = summary_metrics(cm)
        total = cm.total
        acc_from_recalls = sum(
            stage_metrics(cm, s).recall * cm.counts[int(s), :].sum() / total
            for s in StageLabel)
        assert summary.overall_accuracy == pytest.approx(acc_from_recalls, abs=1e-9)

    def test_macro_f1_is_mean_of_stage_f1(self):
        cm = from_display(ref.SLEEP_EDF_5FOLD_CM)
        f1s = [stage_metrics(cm, s).f1 for s in StageLabel]
        assert summary_metrics(cm).macro_f1 == pytest.approx(np.mean(f1s) / 100, abs=1e-12)

    def test_kappa_undefined_when_pe_one(self):
        counts = np.zeros((5, 5), dtype=int)
        counts[4, 4] = 7  # every true and predicted label is W
        assert summary_metrics(ConfusionMatrix(counts)).kappa is None


class TestKFold:
    def test_equal_fold_sizes(self):
        parts = kfold_split(10, k=5, seed=0)
        assert [len(p) for p in parts] == [2, 2, 2, 2, 2]

    def test_sizes_differ_by_at_most_one(self):
        parts = kfold_split(103, k=5, seed=1)
        sizes = [len(p) for p in parts]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 103

    def test_partition_property(self):
        parts = kfold_split(57, k=5, seed=2)
        seen = [i for p in parts for i in p]
        assert sorted(seen) == list(range(57))

    def test_deterministic(self):
        assert all(map(np.array_equal, kfold_split(50, 5, seed=9), kfold_split(50, 5, seed=9)))
        assert not all(map(np.array_equal, kfold_split(50, 5, seed=9),
                           kfold_split(50, 5, seed=10)))

    def test_parts_are_pinned(self):
        """The partition the seed gives, as the earlier tuple-of-tuples code
        gave it: changing it would change every split.json and fold."""
        parts = kfold_split(13, k=4, seed=7)
        assert [p.tolist() for p in parts] == [[0, 6, 7, 8], [1, 4, 10], [2, 3, 12], [5, 9, 11]]
        assert all(p.dtype == np.int64 for p in parts)

    def test_too_few(self):
        with pytest.raises(DataError, match="^3 epochs cannot fill 5 folds$"):
            kfold_split(3, k=5, seed=0)


class TestHoldout:
    def test_published_subject_counts(self):
        subjects = [f"S{i:03d}" for i in range(197)]
        train, evals = holdout_split(subjects, ratio=0.8, seed=0)
        assert len(train) == 157
        assert len(evals) == 40

    def test_two_subjects(self):
        train, evals = holdout_split(["a", "b"], ratio=0.8, seed=0)
        assert len(train) == 1
        assert len(evals) == 1

    def test_no_subject_straddles(self):
        subjects = [f"S{i}" for i in range(23)]
        train, evals = holdout_split(subjects, seed=5)
        assert not set(train) & set(evals)
        assert sorted(set(train) | set(evals)) == sorted(subjects)

    def test_deterministic_and_input_order_free(self):
        subjects = [f"S{i}" for i in range(23)]
        a = holdout_split(subjects, seed=5)
        b = holdout_split(list(reversed(subjects)), seed=5)
        assert a == b

    def test_sides_are_pinned(self):
        assert holdout_split([f"s{i}" for i in range(7)], ratio=0.6, seed=4) == (
            ["s0", "s1", "s2", "s5"], ["s3", "s4", "s6"])

    def test_too_few_subjects(self):
        with pytest.raises(DataError, match="^hold-out needs >= 2 subjects, got 1$"):
            holdout_split(["only"], seed=0)


PLAN_SUBJECTS = ["a", "a", "b", "b", "b", "c", "d", "d", "e", "e", "f"]


def assert_folds_cover(plan, n):
    """Each fold's train and validation rows are sorted int64 arrays,
    disjoint, and together every row."""
    for _, train_idx, val_idx, _ in plan:
        for idx in (train_idx, val_idx):
            assert idx.dtype == np.int64 and np.all(np.diff(idx) > 0)
        assert not np.intersect1d(train_idx, val_idx).size
        assert np.array_equal(np.union1d(train_idx, val_idx), np.arange(n))


class TestPlanFolds:
    """Every fold's rows pinned to what the earlier tuple-of-tuples code gave."""

    def test_kfold_folds_are_pinned(self):
        epochs = epoch_set(np.zeros((11, 0)), [0] * 11, PLAN_SUBJECTS)
        parts, plan, desc = plan_folds(epochs, SplitConfig(k=3, seed=2))
        assert [p.tolist() for p in parts] == [[0, 2, 7, 9], [3, 5, 6, 10], [1, 4, 8]]
        assert [(name, tr.tolist(), va.tolist(), cfg) for name, tr, va, cfg in plan] == [
            ("fold 0", [1, 3, 4, 5, 6, 8, 10], [0, 2, 7, 9], SplitConfig(k=3, seed=2, fold=0)),
            ("fold 1", [0, 1, 2, 4, 7, 8, 9], [3, 5, 6, 10], SplitConfig(k=3, seed=2, fold=1)),
            ("fold 2", [0, 2, 3, 5, 6, 7, 9, 10], [1, 4, 8], SplitConfig(k=3, seed=2, fold=2)),
        ]
        assert desc == {"kind": "kfold", "seed": 2, "k": 3, "folds": [0, 1, 2]}
        assert_folds_cover(plan, 11)

    def test_holdout_fold_is_pinned(self):
        epochs = epoch_set(np.zeros((11, 0)), [0] * 11, PLAN_SUBJECTS)
        split = SplitConfig(kind="holdout", ratio=0.6, seed=1)
        parts, plan, desc = plan_folds(epochs, split)
        assert parts == (["a", "c", "e"], ["b", "d", "f"])
        assert [(name, tr.tolist(), va.tolist(), cfg) for name, tr, va, cfg in plan] == [
            ("holdout", [0, 1, 5, 8, 9], [2, 3, 4, 6, 7, 10], split)]
        assert desc == {"kind": "holdout", "seed": 1, "ratio": 0.6}
        assert_folds_cover(plan, 11)

    def test_published_shape(self):
        """One 5-fold plan over the 457,280 epochs of the published matrix:
        the validation arrays partition the rows, each fold trains on the
        rest, and the plan holds its indices as int64 arrays (the earlier
        tuples and sets of Python ints peaked at 68.6 MiB)."""
        n = 457_280
        epochs = epoch_set(np.zeros((n, 0), dtype=np.float32), np.zeros(n, dtype=np.int64))
        tracemalloc.start()
        try:
            _, plan, _ = plan_folds(epochs, SplitConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        vals = np.concatenate([val_idx for _, _, val_idx, _ in plan])
        assert np.array_equal(np.sort(vals), np.arange(n))
        for _, train_idx, val_idx, _ in plan:
            assert np.array_equal(train_idx, np.setdiff1d(np.arange(n), val_idx))
        assert peak < 40 << 20


def brute_force_curves(scores, labels, c):
    """Independent oracle: loop every distinct threshold, count by scanning."""
    s = scores[:, c]
    y = labels == c
    pos, neg = int(y.sum()), int((~y).sum())
    roc, pr = [(0.0, 0.0)], [(0.0, 1.0)]
    for thr in sorted(set(s), reverse=True):
        tp = fp = 0
        for si, yi in zip(s, y):
            if si >= thr:
                if yi:
                    tp += 1
                else:
                    fp += 1
        roc.append((fp / neg, tp / pos))
        pr.append((tp / pos, tp / (tp + fp)))
    area_roc = sum(0.5 * (x1 - x0) * (y1 + y0)
                   for (x0, y0), (x1, y1) in zip(roc, roc[1:]))
    area_pr = sum(0.5 * (x1 - x0) * (y1 + y0)
                  for (x0, y0), (x1, y1) in zip(pr, pr[1:]))
    return roc, pr, area_roc, area_pr


class TestCurves:
    def test_perfect_separation(self):
        labels = np.array([0] * 5 + [1] * 5)
        scores = np.zeros((10, 5))
        scores[:5, 0] = np.linspace(0.9, 0.99, 5)
        scores[5:, 0] = np.linspace(0.01, 0.1, 5)
        curves = roc_pr_curves(scores, labels, classes=[0])
        assert curves[0].roc_auc == pytest.approx(1.0)
        assert curves[0].pr_auc == pytest.approx(1.0)

    def test_constant_scores_give_half_auc(self):
        labels = np.array([0] * 7 + [2] * 13)
        scores = np.full((20, 5), 0.2)
        curves = roc_pr_curves(scores, labels, classes=[0])
        assert curves[0].roc_auc == pytest.approx(0.5)

    def test_matches_brute_force_oracle(self):
        labels = RNG.integers(0, 5, size=20)
        while len(set(labels.tolist())) < 5:
            labels = RNG.integers(0, 5, size=20)
        scores = RNG.dirichlet(np.ones(5), size=20)
        curves = roc_pr_curves(scores, labels)
        for c in range(5):
            roc, pr, aroc, apr = brute_force_curves(scores, labels, c)
            # pytest.approx's default tolerance, on the [n, 2] point arrays
            np.testing.assert_allclose(curves[c].roc_points, roc, rtol=1e-6, atol=1e-12)
            np.testing.assert_allclose(curves[c].pr_points, pr, rtol=1e-6, atol=1e-12)
            assert curves[c].roc_auc == pytest.approx(aroc)
            assert curves[c].pr_auc == pytest.approx(apr)

    def test_points_equal_the_tuple_sweep(self):
        rng = np.random.default_rng(41)
        labels = rng.integers(0, 5, size=3000)
        scores = rng.dirichlet(np.ones(5), size=3000)
        scores[::3] = np.round(scores[::3], 2)  # repeated scores share a threshold
        curves = roc_pr_curves(scores, labels)
        for c in range(5):
            roc, pr, roc_auc, pr_auc = reference_roc_pr_curves(scores, labels, c)
            for points, expect in ((curves[c].roc_points, roc), (curves[c].pr_points, pr)):
                assert points.dtype == np.float64 and points.shape == (len(expect), 2)
                assert points.tolist() == [list(p) for p in expect]
            # the CSVs write repr() of these, so type and bits must match
            assert type(curves[c].roc_auc) is float and curves[c].roc_auc == roc_auc
            assert type(curves[c].pr_auc) is float and curves[c].pr_auc == pr_auc

    def test_points_are_held_as_arrays(self):
        rng = np.random.default_rng(42)
        n = 91_456  # one Sleep-EDF fold
        labels = rng.integers(0, 5, size=n)
        scores = rng.dirichlet(np.ones(5), size=n)
        tracemalloc.start()
        try:
            curves = roc_pr_curves(scores, labels)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(len(cs.roc_points) + len(cs.pr_points) for cs in curves.values()) > 8 * n
        # tuples of Python floats held 98 MB here, with a 105 MB peak
        assert held < 16 * 2**20 and peak < 32 * 2**20, (held, peak)

    def test_single_class_present(self):
        labels = np.zeros(10, dtype=int)
        scores = RNG.dirichlet(np.ones(5), size=10)
        with pytest.raises(SingleClassPresent):
            roc_pr_curves(scores, labels, classes=[1])
        with pytest.raises(SingleClassPresent):
            roc_pr_curves(scores, labels, classes=[0])  # no negatives either


def always_w_model(cfg):
    """Constant logits favoring W regardless of the input."""
    mp = init_params(cfg, seed=0)
    mp["head.fc.weight"].data[:] = 0.0
    mp["head.fc.bias"].data[:] = 0.0
    mp["head.fc.bias"].data[int(StageLabel.W)] = 10.0
    return mp


def epochs_with_published_shares(n=500, length=64):
    shares = {4: 0.528, 2: 0.040, 1: 0.238, 0: 0.085, 3: 0.106}
    labels = []
    for code, share in sorted(shares.items()):
        labels += [code] * round(n * share)
    labels = labels[:n]
    rng = np.random.default_rng(0)
    return epoch_set([rng.normal(size=length) for _ in labels], labels)


class TestEvaluate:
    def test_majority_class_baseline(self):
        cfg = micro_model_config()
        epochs = epochs_with_published_shares()
        result = evaluate(always_w_model(cfg), epochs)
        share_w = np.mean([e.label is StageLabel.W for e in epochs])
        assert result.summary.overall_accuracy == pytest.approx(100 * share_w, abs=1e-9)
        assert result.summary.overall_accuracy == pytest.approx(52.8, abs=0.5)

    def test_perfect_oracle_kappa_one(self):
        y = RNG.integers(0, 5, size=200)
        cm = ConfusionMatrix.from_pairs(y, y)
        assert summary_metrics(cm).kappa == pytest.approx(1.0)

    def test_metrics_consistent_with_prediction_stream(self):
        cfg = micro_model_config()
        mp = init_params(cfg, seed=2)
        epochs = epochs_with_published_shares(n=60)
        result = evaluate(mp, epochs)
        rebuilt = ConfusionMatrix.from_pairs(result.y_true, result.y_pred)
        assert rebuilt == result.cm
        assert summary_metrics(rebuilt).overall_accuracy == result.summary.overall_accuracy

    def test_pred_argmax_ties_break_low(self):
        probs = np.array([[0.2, 0.2, 0.2, 0.2, 0.2]])
        assert probs.argmax(axis=1)[0] == 0

    def test_empty_split(self):
        cfg = micro_model_config()
        with pytest.raises(EmptySplit):
            evaluate(init_params(cfg, 0), epochs_with_published_shares(n=10), indices=[])

    def test_order_sorted_by_subject_then_index(self):
        cfg = micro_model_config()
        mp = init_params(cfg, seed=0)
        rows = np.random.default_rng(3).normal(size=(3, 64))
        epochs = epoch_set(rows, [StageLabel.W, StageLabel.R, StageLabel.N1], ["b", "a", "a"])
        result = evaluate(mp, epochs)
        # subject a's rows 1, 2, then subject b's row 0
        assert result.y_true.tolist() == [StageLabel.R, StageLabel.N1, StageLabel.W]
        expect = predict_probabilities(mp, rows[[1, 2, 0]])
        np.testing.assert_array_equal(result.probabilities, expect)
        np.testing.assert_array_equal(result.y_pred, expect.argmax(axis=1))

    def test_order_of_a_loaded_cache(self, tmp_path):
        """Rows come out by subject, then in cache-file name order, then in
        row order, whatever the order and repeats of `indices`."""
        mp = init_params(micro_model_config(), seed=0)
        rng = np.random.default_rng(5)
        for name, labels in (("b__n1", [2, 3, 4]), ("a__n2", [3, 4, 0]), ("a__n1", [0, 1, 2])):
            cache.save_epochs(epoch_set(rng.normal(size=(3, 64)), labels, cache.subject_of(name)),
                              tmp_path / f"{name}{cache.EPOCH_SUFFIX}")
        epochs = cache.load_all(tmp_path)
        result = evaluate(mp, epochs, [7, 2, 4, 0, 8, 5, 1, 3, 6, 4])
        # a__n1 rows 0-2, a__n2 rows 0-2 (row 1 twice), b__n1 rows 0-2
        assert result.y_true.tolist() == [0, 1, 2, 3, 4, 4, 0, 2, 3, 4]
        np.testing.assert_array_equal(
            result.probabilities,
            predict_probabilities(mp, epochs.samples[[0, 1, 2, 3, 4, 4, 5, 6, 7, 8]]))


class TestFloat32Inference:
    """predict_probabilities runs a float32 copy with folded batch norms."""

    def test_matches_float64_forward_on_default_model(self):
        # random batch norms: a fresh model's are the identity and hide a wrong fold
        mp = randomize_batch_norms(init_params(ModelConfig(), seed=0),
                                   np.random.default_rng(8))
        rows = sine_epochs(48, seed=8).samples.astype(np.float32)  # as cached
        probs = predict_probabilities(mp, rows)
        logits = model_forward(graph_free(mp), Tensor(rows[:, None, :].astype(np.float64)),
                               training=False)
        expect = ag.softmax(logits).data
        assert probs.dtype == np.float64
        np.testing.assert_allclose(probs, expect, rtol=0, atol=1e-4)
        top2 = np.sort(expect, axis=1)[:, -2:]
        clear = top2[:, 1] - top2[:, 0] > 1e-3
        assert clear.sum() > len(rows) // 2
        np.testing.assert_array_equal(probs.argmax(axis=1)[clear], expect.argmax(axis=1)[clear])

    def test_leaves_model_unchanged_and_unaliased(self, monkeypatch):
        cfg = micro_model_config()
        mp = randomize_batch_norms(init_params(cfg, seed=1), np.random.default_rng(9))
        before = {name: a.tobytes() for name, a in mp.state_arrays().items()}
        seen, logits = [], []

        def forward(params, x, training=False):
            seen.append(params)
            logits.append(model_forward(params, x, training))
            return logits[-1]

        monkeypatch.setattr(evaluation, "model_forward", forward)
        predict_probabilities(mp, np.random.default_rng(9).normal(size=(40, 64)), batch_size=16)
        assert len(seen) == 3 and all(p is seen[0] for p in seen)
        assert seen[0] is not mp and batch_norms(seen[0]) == []
        assert all(out.node is None for out in logits)
        for name, a in mp.state_arrays().items():
            assert a.tobytes() == before[name], name
            for b in seen[0].state_arrays().values():
                assert not np.shares_memory(a, b), name


@pytest.fixture(scope="module")
def default_model_rows():
    """The default model with random batch norms, and 64 cached-dtype rows."""
    mp = randomize_batch_norms(init_params(ModelConfig(), seed=0), np.random.default_rng(14))
    return mp, sine_epochs(64, seed=14).samples.astype(np.float32)


class TestBlockedInference:
    """predict_probabilities forwards at most block_rows(cfg) rows at a time,
    whatever batch_size asks, and gathers each block's rows itself."""

    def test_block_rows(self):
        assert evaluation.block_rows(ModelConfig()) == 4
        assert evaluation.block_rows(micro_model_config()) > 16
        assert evaluation.block_rows(ModelConfig(branch_channels=256)) == 1

    def test_probabilities_do_not_depend_on_batch_size(self, default_model_rows):
        mp, rows = default_model_rows
        probs = predict_probabilities(mp, rows, batch_size=64)
        for batch_size in (4, 8, 32):
            np.testing.assert_array_equal(
                predict_probabilities(mp, rows, batch_size=batch_size), probs)
        # 37 rows end in a one-row block, whose matmuls BLAS may sum in another order
        np.testing.assert_allclose(predict_probabilities(mp, rows[:37]), probs[:37],
                                   rtol=0, atol=1e-6)

    def test_no_forward_exceeds_block_rows(self, default_model_rows, monkeypatch):
        mp, rows = default_model_rows
        seen = []

        def forward(params, x, training=False):
            seen.append(x.shape[0])
            return model_forward(params, x, training)

        monkeypatch.setattr(evaluation, "model_forward", forward)
        predict_probabilities(mp, rows, batch_size=64)
        block = evaluation.block_rows(mp.cfg)
        assert seen == [block] * (len(rows) // block)

    def test_working_set_does_not_grow_with_batch_size(self, default_model_rows, two_workers):
        mp, rows = default_model_rows
        rows = np.tile(rows, (4, 1))  # 256 rows
        peaks = []
        for n in (64, 256):
            tracemalloc.start()  # numpy reports its buffers to tracemalloc
            try:
                predict_probabilities(mp, rows[:n], batch_size=256)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 16 * 2**20, peaks
        assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0], peaks

    def test_index_gathers_like_a_copy(self):
        cfg = micro_model_config()
        rng = np.random.default_rng(15)
        mp = randomize_batch_norms(init_params(cfg, seed=4), rng)
        samples = rng.normal(size=(30, 64)).astype(np.float32)
        index = np.array([7, 2, 2, 29, 0, 11, 5])
        np.testing.assert_array_equal(
            predict_probabilities(mp, samples, batch_size=3, index=index),
            predict_probabilities(mp, samples[index], batch_size=3))
        epochs = epoch_set(samples, np.arange(30) % 5)
        chosen = [3, 17, 8, 25]
        result = evaluate(mp, epochs, chosen, batch_size=3)
        # one subject, so evaluate orders the rows by position
        np.testing.assert_array_equal(result.probabilities,
                                      predict_probabilities(mp, samples[[3, 8, 17, 25]]))

    def test_zero_rows(self):
        cfg = micro_model_config()
        probs = predict_probabilities(init_params(cfg, seed=0), np.empty((0, cfg.input_length)))
        assert probs.shape == (0, 5) and probs.dtype == np.float64

    @pytest.mark.parametrize("batch_size", [0, -3])
    def test_batch_size_below_one(self, batch_size):
        cfg = micro_model_config()
        with pytest.raises(ValueError, match="batch_size"):
            predict_probabilities(init_params(cfg, seed=0), np.zeros((2, cfg.input_length)),
                                  batch_size=batch_size)


def forward_spy(monkeypatch, on_call):
    """Route evaluation.model_forward through on_call(x) first."""
    def forward(params, x, training=False):
        on_call(x)
        return model_forward(params, x, training)
    monkeypatch.setattr(evaluation, "model_forward", forward)


class TestInferencePool:
    """predict_probabilities runs its blocks on the worker pool with OpenBLAS
    at one thread, restores the count, and gives the inline loop's bytes."""

    def test_pool_gives_the_inline_bytes(self, default_model_rows, openblas_threads,
                                         monkeypatch):
        mp, rows = default_model_rows
        threads = []
        forward_spy(monkeypatch, lambda x: threads.append(threading.current_thread()))
        pooled = predict_probabilities(mp, rows)
        assert threading.main_thread() not in threads
        assert len(set(threads)) == 2
        monkeypatch.setattr(evaluation, "_MAP_BLOCKS", 3)  # 16 blocks map as 3+3+3+3+3+1
        windowed = predict_probabilities(mp, rows)
        threads.clear()
        monkeypatch.setattr(parallel, "openblas_thread_calls", lambda: None)
        inline = predict_probabilities(mp, rows)
        assert set(threads) == {threading.main_thread()}
        assert pooled.tobytes() == inline.tobytes()
        assert windowed.tobytes() == inline.tobytes()

    def test_blas_threads_restored(self, default_model_rows, openblas_threads, monkeypatch):
        mp, rows = default_model_rows
        get_threads, set_threads = openblas_threads
        during = []
        forward_spy(monkeypatch, lambda x: during.append(get_threads()))
        for start in (2, 1):
            set_threads(start)
            predict_probabilities(mp, rows[:16])
            assert get_threads() == start
            # the count is process-wide: a fresh thread reads it too
            seen = []
            fresh = threading.Thread(target=lambda: seen.append(get_threads()))
            fresh.start()
            fresh.join()
            assert seen == [start]
        assert during and set(during) == {1}

    def test_exception_in_a_block_reaches_the_caller(self, default_model_rows,
                                                     openblas_threads, monkeypatch):
        mp, rows = default_model_rows
        get_threads = openblas_threads[0]
        before = get_threads()
        calls = itertools.count()  # next() is atomic, so exactly one block fails
        started = []

        def fail_third(x):
            n = next(calls)
            started.append(n)
            if n == 2:
                raise ZeroDivisionError("block failed")

        forward_spy(monkeypatch, fail_third)
        with pytest.raises(ZeroDivisionError, match="block failed"):
            predict_probabilities(mp, rows)
        assert get_threads() == before
        # the blocks not yet started were cancelled
        assert len(started) < len(rows) // evaluation.block_rows(mp.cfg)
        monkeypatch.setattr(evaluation, "model_forward", model_forward)
        np.testing.assert_array_equal(predict_probabilities(mp, rows[:8]),
                                      predict_probabilities(mp, rows)[:8])

    def test_one_row_blocks_under_fast_switching(self, openblas_threads, monkeypatch):
        cfg = micro_model_config()
        rng = np.random.default_rng(16)
        mp = randomize_batch_norms(init_params(cfg, seed=5), rng)
        samples = rng.normal(size=(300, cfg.input_length)).astype(np.float32)
        monkeypatch.setattr(parallel, "WORKERS", 4)  # more workers than cores
        monkeypatch.setattr(evaluation, "_MAP_BLOCKS", 7)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pooled = predict_probabilities(mp, samples, batch_size=1)
        finally:
            sys.setswitchinterval(interval)
        monkeypatch.setattr(parallel, "openblas_thread_calls", lambda: None)
        # a lost or misplaced row write would show as a differing row
        assert pooled.tobytes() == predict_probabilities(mp, samples, batch_size=1).tobytes()

    def test_a_forked_child_makes_a_pool_of_its_own(self, default_model_rows,
                                                     openblas_threads):
        """A child forked after the pool was made holds none of its worker
        threads. `parallel` forgets the pool in the child, so the child's
        inference makes a new one and does not wait on workers that do not
        exist; a child that waits is ended by SIGALRM after 30 s."""
        mp, rows = default_model_rows
        expect = predict_probabilities(mp, rows[:16]).tobytes()  # 4 blocks, on the pool
        assert parallel._POOL is not None
        pid = os.fork()
        if pid == 0:  # the child never returns into pytest
            try:
                signal.alarm(30)
                os._exit(0 if predict_probabilities(mp, rows[:16]).tobytes() == expect else 1)
            finally:
                os._exit(2)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0

    def test_validation_leaves_training_unchanged(self, openblas_threads, monkeypatch):
        from sleepstage.training import TrainConfig, train

        epochs = sine_epochs(24, seed=21)
        idx = np.arange(len(epochs))
        states = []
        # training steps with OpenBLAS at one thread where the setter is
        # found, since its sums can depend on the count; so the inline run
        # steps at one thread too, and only where validation runs differs
        for blas, count in ((None, 1), (openblas_threads, 2)):
            monkeypatch.setattr(parallel, "openblas_thread_calls", lambda blas=blas: blas)
            openblas_threads[1](count)
            result = train(epochs, idx[:16], idx[16:], TrainConfig(max_passes=2, batch_size=8),
                           ModelConfig())
            # final_params: the kept params may be pass 1's, trained before any validation
            states.append({name: a.tobytes()
                           for name, a in result.final_params.state_arrays().items()})
        assert states[0] == states[1]
