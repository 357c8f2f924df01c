"""Shared test helpers: synthetic recordings and corpora, micro model configs."""
from __future__ import annotations

import datetime as dt
from fractions import Fraction
from pathlib import Path

import numpy as np

from sleepstage.edf import (
    LabeledEpoch,
    SignalHeader,
    StageLabel,
    build_edf,
    encode_annotation_signal,
)
from sleepstage.model import ModelConfig

# one line per acceptance criterion, printed in the terminal summary
ACCEPTANCE_LINES: list[str] = []

EEG_CHANNEL = "EEG Fpz-Cz"

# one distinguishing frequency per stage code (N3..W), Hz
CLASS_FREQS = {0: 2.0, 1: 6.0, 2: 10.0, 3: 14.0, 4: 18.0}


def micro_model_config(**overrides) -> ModelConfig:
    base = dict(branch_channels=4, input_length=64, pool_sizes=(2, 2, 2))
    base.update(overrides)
    return ModelConfig(**base)


def sine_epoch(label: int, rng: np.random.Generator, length: int = 3000,
               rate: float = 100.0, noise: float = 0.05) -> np.ndarray:
    t = np.arange(length) / rate
    phase = rng.uniform(0, 2 * np.pi)
    return np.sin(2 * np.pi * CLASS_FREQS[int(label)] * t + phase) + \
        noise * rng.normal(size=length)


def sine_epochs(n: int, seed: int = 0, length: int = 3000, rate: float = 100.0,
                subject: str = "synthetic") -> list[LabeledEpoch]:
    """Balanced 5-class dataset of stage-coded sinusoids, trivially separable
    by band energy."""
    rng = np.random.default_rng(seed)
    epochs = []
    for i in range(n):
        label = StageLabel(i % 5)
        epochs.append(LabeledEpoch(
            samples=sine_epoch(label, rng, length=length, rate=rate),
            label=label,
            subject_id=subject,
            epoch_index=i,
        ))
    return epochs


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
