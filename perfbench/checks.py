"""Output checks. Each returns a list of problems; an empty list means the
output is correct. None of them calls sleepstage: every expected value is
recomputed here with plain numpy from the generated ground truth and the raw
bytes of the generated files."""
from __future__ import annotations

import numpy as np

from sleepstage.errors import SleepStageError

from .corpus import PSG_SIGNALS, STAGE_CODE, Night

# the cache and the reference each round a float64 value to float32, so
# they may land one float32 step apart
CACHE_RTOL = 2.0 ** -23
PROB_SUM_ATOL = 1e-6
# a float64 rerun reproduces the recorded values to ~1e-12; a float32 compute
# path is expected to stay inside these
LOSS_RTOL = 1e-4
PROB_ATOL = 1e-4
PREDICTION_SHARE = 0.95


def eeg_digital(night: Night) -> np.ndarray:
    """[n_epochs, 3000] digital samples of the EEG channel, decoded straight
    from the PSG file: it is the first signal of every data record."""
    raw = night.psg.read_bytes()
    n_signals = int(raw[252:256])
    records = np.frombuffer(raw, dtype="<i2", offset=256 * (1 + n_signals))
    return records.reshape(len(night.stages), -1)[:, :PSG_SIGNALS[0][1]].copy()


def ingested_night(night: Night, error: BaseException | None, labels, samples) -> list[str]:
    """A valid night is cached with the generated labels and samples that
    match a 5th/95th-percentile normalization of the EEG channel's digital
    samples, rounded to float32 as the cache stores it; a truncated night is
    refused with a SleepStageError. Rows are compared one at a time so that
    the check holds no second copy of the night."""
    name = night.cache_name
    if night.truncated:
        if isinstance(error, SleepStageError):
            return []
        return [f"{name}: truncated PSG gave {error!r}, expected a SleepStageError"]
    if error is not None:
        return [f"{name}: {error!r}"]
    expected = night.expected_labels()
    if list(labels) != expected or len(samples) != len(expected):
        return [f"{name}: {len(labels)} cached labels differ from {len(expected)} generated"]
    _, _, pmin, pmax, dmin, dmax = PSG_SIGNALS[0]
    gain = (pmax - pmin) / (dmax - dmin)
    digital = eeg_digital(night)
    s05, s95 = np.percentile(pmin + (digital.astype(np.float64) - dmin) * gain, [5.0, 95.0],
                             overwrite_input=True)
    kept = [i for i, token in enumerate(night.stages) if STAGE_CODE[token] is not None]
    for row, i in zip(samples, kept):
        physical = pmin + (digital[i].astype(np.float64) - dmin) * gain
        reference = (2.0 * (physical - s05) / (s95 - s05) - 1.0).astype(np.float32)
        row = np.asarray(row, dtype=np.float32)
        if row.shape != reference.shape or np.any(
                np.abs(row - reference) > CACHE_RTOL * np.abs(reference)):
            return [f"{name}: cached samples of epoch {i} differ from the reference "
                    "normalization"]
    return []


def finite_losses(losses) -> list[str]:
    bad = [i for i, v in enumerate(losses) if not np.isfinite(v)]
    return [f"non-finite loss in pass {i + 1}" for i in bad]


def loss_matches(loss: float, recorded: float) -> list[str]:
    if abs(loss - recorded) <= LOSS_RTOL * abs(recorded):
        return []
    return [f"reference loss {loss!r} differs from recorded {recorded!r} by more than "
            f"{LOSS_RTOL:g} relative"]


def probabilities(probs: np.ndarray, n_rows: int) -> list[str]:
    probs = np.asarray(probs)
    if probs.shape != (n_rows, 5):
        return [f"probabilities have shape {probs.shape}, expected ({n_rows}, 5)"]
    if not np.all(np.isfinite(probs)) or np.any(probs < 0):
        return ["probabilities hold negative or non-finite values"]
    worst = float(np.max(np.abs(probs.sum(axis=1) - 1.0)))
    return [] if worst <= PROB_SUM_ATOL else [f"probability rows sum to 1 +- {worst:g}"]


def kappa_macro_f1(y_true, y_pred) -> tuple[float | None, float | None]:
    """Cohen's kappa and macro-F1 straight from the label pairs."""
    t = np.asarray(y_true)
    p = np.asarray(y_pred)
    p0 = np.mean(t == p)
    pe = sum(np.mean(t == c) * np.mean(p == c) for c in range(5))
    kappa = None if pe == 1.0 else (p0 - pe) / (1.0 - pe)
    f1s = []
    for c in range(5):
        tp = np.sum((t == c) & (p == c))
        den = np.sum(t == c) + np.sum(p == c)
        if den:
            f1s.append(2.0 * tp / den)
    return kappa, (float(np.mean(f1s)) if f1s else None)


def scored(result, summary, n_epochs: int) -> list[str]:
    """An evaluate() result: probabilities, confusion total, kappa, macro-F1."""
    problems = probabilities(result.probabilities, n_epochs)
    if result.cm.total != n_epochs:
        problems.append(f"confusion matrix holds {result.cm.total} of {n_epochs} epochs")
    if not np.array_equal(result.y_pred, np.argmax(result.probabilities, axis=1)):
        problems.append("y_pred is not the argmax of the probabilities")
    kappa, macro_f1 = kappa_macro_f1(result.y_true, result.y_pred)
    for name, mine, theirs in (("kappa", kappa, summary.kappa),
                               ("macro-F1", macro_f1, summary.macro_f1)):
        if (mine is None) != (theirs is None) or (
                mine is not None and abs(mine - theirs) > 1e-9):
            problems.append(f"{name} {theirs!r} differs from recomputed {mine!r}")
    return problems


def predicted_night(night: Night, probs: np.ndarray, n_reference: int, svg: str) -> list[str]:
    """The predict path scored every window and found every scored epoch
    of the night's hypnogram."""
    problems = probabilities(probs, len(night.stages))
    if n_reference != len(night.expected_labels()):
        problems.append(f"{night.stem}: {n_reference} reference epochs, "
                        f"generated {len(night.expected_labels())}")
    if not svg.startswith("<svg") or "<path" not in svg:
        problems.append(f"{night.stem}: hypnogram SVG has no trace")
    return problems


def predictions_match(probs: np.ndarray, recorded_probs) -> list[str]:
    probs = np.asarray(probs)
    recorded = np.asarray(recorded_probs)
    if probs.shape != recorded.shape:
        return [f"reference probabilities have shape {probs.shape}, recorded {recorded.shape}"]
    share = float(np.mean(probs.argmax(axis=1) == recorded.argmax(axis=1)))
    problems = []
    if share < PREDICTION_SHARE:
        problems.append(f"{share:.3f} of reference predictions agree, need {PREDICTION_SHARE}")
    worst = float(np.max(np.abs(probs - recorded)))
    if worst > PROB_ATOL:
        problems.append(f"reference probabilities differ by {worst:g} > {PROB_ATOL:g}")
    return problems
