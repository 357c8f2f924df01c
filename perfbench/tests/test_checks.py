from types import SimpleNamespace

import numpy as np
import pytest

from perfbench import checks, corpus, workloads
from sleepstage import cache, evaluation
from sleepstage.errors import TruncatedFile


@pytest.fixture(scope="module")
def cached(tmp_path_factory):
    """A small night through the ingest path and back out of the cache."""
    night = corpus.make_night(4, "S", 0, tmp_path_factory.mktemp("edf"), n_epochs=40)
    cache_dir = tmp_path_factory.mktemp("cache")
    workloads.ingest_night(night, cache_dir)
    epochs = cache.load_epochs(cache_dir / f"{night.cache_name}{cache.EPOCH_SUFFIX}",
                               night.subject)
    return night, [int(e.label) for e in epochs], [e.samples for e in epochs]


def test_ingested_night_passes(cached):
    night, labels, samples = cached
    assert checks.ingested_night(night, None, labels, samples) == []


def test_flipped_label_fails(cached):
    night, labels, samples = cached
    flipped = list(labels)
    flipped[3] = (flipped[3] + 1) % 5
    assert checks.ingested_night(night, None, flipped, samples)


def test_perturbed_sample_fails(cached):
    night, labels, samples = cached
    bent = [s.copy() for s in samples]
    bent[5][100] += 1e-4
    assert checks.ingested_night(night, None, labels, bent)


def test_missing_epoch_fails(cached):
    night, labels, samples = cached
    assert checks.ingested_night(night, None, labels, samples[:-1])


def test_truncated_night_needs_a_typed_error(tmp_path):
    night = corpus.make_corpus(1, tmp_path, n_epochs=40)[-1]
    assert checks.ingested_night(night, TruncatedFile("short"), [], []) == []
    assert checks.ingested_night(night, ValueError("short"), [], [])
    assert checks.ingested_night(night, None, [], [])


def test_non_finite_loss_fails():
    assert checks.finite_losses([1.2, 0.9]) == []
    assert checks.finite_losses([1.2, float("nan")])
    assert checks.finite_losses([float("inf")])


def test_reference_loss_tolerance():
    assert checks.loss_matches(2.0 * (1 + 0.5 * checks.LOSS_RTOL), 2.0) == []
    assert checks.loss_matches(2.0 * (1 + 2 * checks.LOSS_RTOL), 2.0)


def _result(y_true, y_pred):
    probs = np.full((len(y_pred), 5), 0.1)
    probs[np.arange(len(y_pred)), y_pred] = 0.6
    cm = evaluation.ConfusionMatrix.from_pairs(y_true, y_pred)
    return SimpleNamespace(probabilities=probs, cm=cm, y_true=np.asarray(y_true),
                           y_pred=np.asarray(y_pred))


def test_scored_checks_fire():
    y_true, y_pred = [0, 1, 2, 3, 4, 4, 1, 2], [0, 1, 1, 3, 4, 3, 1, 2]
    result = _result(y_true, y_pred)
    summary = evaluation.summary_metrics(result.cm)
    assert checks.scored(result, summary, 8) == []

    assert checks.scored(result, summary, 9)  # confusion total vs epochs scored
    wrong_kappa = SimpleNamespace(kappa=summary.kappa + 1e-3, macro_f1=summary.macro_f1)
    assert checks.scored(result, wrong_kappa, 8)
    wrong_f1 = SimpleNamespace(kappa=summary.kappa, macro_f1=summary.macro_f1 - 1e-3)
    assert checks.scored(result, wrong_f1, 8)
    result.probabilities[2, 0] += 0.01  # a row no longer sums to 1
    assert checks.scored(result, summary, 8)


def test_independent_kappa_and_f1_match_the_package():
    rng = np.random.default_rng(0)
    y_true, y_pred = rng.integers(0, 5, 200), rng.integers(0, 5, 200)
    summary = evaluation.summary_metrics(evaluation.ConfusionMatrix.from_pairs(y_true, y_pred))
    kappa, macro_f1 = checks.kappa_macro_f1(y_true, y_pred)
    assert kappa == pytest.approx(summary.kappa, abs=1e-12)
    assert macro_f1 == pytest.approx(summary.macro_f1, abs=1e-12)


def test_predicted_night_checks_fire(tmp_path):
    night = corpus.make_night(2, "S", 0, tmp_path, n_epochs=40)
    probs = np.full((40, 5), 0.2)
    n_ref = len(night.expected_labels())
    assert checks.predicted_night(night, probs, n_ref, "<svg><path d='M 0 0'/></svg>") == []
    assert checks.predicted_night(night, probs, n_ref - 1, "<svg><path/></svg>")
    assert checks.predicted_night(night, probs[:-1], n_ref, "<svg><path/></svg>")
    assert checks.predicted_night(night, probs, n_ref, "<svg></svg>")


def test_reference_predictions_check_fires():
    recorded = np.full((10, 5), 0.1)
    recorded[:, 2] = 0.6
    assert checks.predictions_match(recorded.copy(), recorded) == []
    nudged = recorded + 2 * checks.PROB_ATOL
    assert checks.predictions_match(nudged, recorded)
    flipped = recorded.copy()
    flipped[0] = [0.6, 0.1, 0.1, 0.1, 0.1]
    assert checks.predictions_match(flipped, recorded)
