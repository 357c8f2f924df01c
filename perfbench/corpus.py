"""Seeded synthetic Sleep-EDF-like corpus: PSG and hypnogram EDF bytes.

Every night mimics the Sleep-EDF layout so that parsing pays for what a real
file costs: three 100 Hz channels (two EEG derivations and the EOG) plus four
1 Hz channels in 30-s data records. Hypnograms are sidecar EDF+ files whose
TAL list sits in a single record, as in Sleep-EDF; one night instead carries
its annotations embedded in the PSG, one timestamped TAL record per data
record, as an EDF+ continuous recording does. One further PSG is cut short
mid-record and must be rejected by the reader.

The corpus is written to a directory as EDF files with a manifest, as a user
has it on disk; the same seed always gives byte-identical files. Generating
it in a child process keeps its memory out of the benchmark's own peak:

    python3 -m perfbench.corpus --seed N --out DIR
"""
from __future__ import annotations

import argparse
import dataclasses
import datetime as dt
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from sleepstage import edf

EEG_CHANNEL = "EEG Fpz-Cz"
RATE_HZ = 100
EPOCH_S = edf.EPOCH_SECONDS
EPOCH_LEN = RATE_HZ * EPOCH_S
NIGHT_EPOCHS = 960  # 8 h of 30-s epochs

# (label, samples per 30-s record, physical min, physical max, digital min, digital max)
PSG_SIGNALS = [
    (EEG_CHANNEL, 3000, -192.0, 192.0, -2048, 2047),
    ("EEG Pz-Oz", 3000, -197.0, 196.0, -2048, 2047),
    ("EOG horizontal", 3000, -1009.0, 1009.0, -2048, 2047),
    ("Resp oro-nasal", 30, -2048.0, 2047.0, -2048, 2047),
    ("EMG submental", 30, -5.0, 5.0, -2500, 2500),
    ("Temp rectal", 30, 34.0, 40.0, -2849, 2731),
    ("Event marker", 30, -2047.0, 2048.0, -2047, 2048),
]

# stage token -> (dominant EEG frequency in Hz, amplitude in uV)
_STAGE_WAVE = {
    "W": (18.0, 20.0), "1": (6.0, 30.0), "2": (13.0, 40.0), "3": (1.5, 75.0),
    "4": (1.0, 85.0), "R": (8.0, 25.0), "M": (25.0, 60.0), "?": (10.0, 15.0),
}
# raw token -> cached label code, None when the pipeline drops the epoch
STAGE_CODE = {"W": 4, "R": 3, "1": 2, "2": 1, "3": 0, "4": 0, "M": None, "?": None}
_TAL_BYTES = 64  # per data record of an embedded annotation signal
MANIFEST = "corpus.json"


@dataclass
class Night:
    """One synthetic recording on disk with the ground truth the checks need."""

    subject: str
    stem: str
    psg: Path
    hypnogram: Path | None         # None when annotations are embedded in psg
    stages: list[str]              # raw stage token per 30-s epoch
    truncated: bool = False

    @property
    def cache_name(self) -> str:
        return f"{self.subject}__{self.stem}"

    @property
    def nbytes(self) -> int:
        return sum(p.stat().st_size for p in (self.psg, self.hypnogram) if p is not None)

    def expected_labels(self) -> list[int]:
        return [STAGE_CODE[t] for t in self.stages if STAGE_CODE[t] is not None]


def night_stages(rng: np.random.Generator, n_epochs: int) -> list[str]:
    """A night-like stage sequence: sleep-onset wake, ~90-min NREM/REM cycles
    with deep sleep front-loaded and REM growing towards morning, brief
    arousals, final wake and a few unscored epochs at the end."""
    seq: list[str] = []

    def bout(token: str, lo: int, hi: int) -> None:
        seq.extend([token] * int(rng.integers(lo, hi + 1)))

    bout("W", 20, 40)
    cycle = 0
    while len(seq) < n_epochs - 40:
        late = min(cycle, 4)
        bout("1", 3, 8)
        bout("2", 15, 30)
        if late < 3:
            bout("3", 20 - 5 * late, 34 - 6 * late)
            if late < 2:
                bout("4", 6, 14)
            bout("3", 2, 6)
        bout("2", 10, 25)
        if rng.random() < 0.6:
            bout("M", 1, 1)
            bout("W", 2, 6)
            bout("1", 2, 4)
        bout("R", 5 + 4 * late, 12 + 6 * late)
        if rng.random() < 0.5:
            bout("W", 2, 6)
        cycle += 1
    seq = seq[:n_epochs - 24]
    seq.extend(["W"] * (n_epochs - 4 - len(seq)))
    seq.extend(["?"] * 4)
    return seq


def stage_intervals(stages: list[str]) -> list[tuple[float, float, str]]:
    """Merge consecutive equal tokens into (onset_s, duration_s, token) runs."""
    out: list[tuple[float, float, str]] = []
    for i, token in enumerate(stages):
        if out and out[-1][2] == token:
            onset, dur, _ = out[-1]
            out[-1] = (onset, dur + EPOCH_S, token)
        else:
            out.append((float(EPOCH_S * i), float(EPOCH_S), token))
    return out


def _digitize(physical: np.ndarray, pmin, pmax, dmin, dmax) -> np.ndarray:
    gain = (pmax - pmin) / (dmax - dmin)
    return np.clip(np.round((physical - pmin) / gain) + dmin, dmin, dmax).astype(np.int32)


def _channels(rng: np.random.Generator, stages: list[str]):
    n = len(stages)
    tokens = sorted(_STAGE_WAVE)
    code = np.array([tokens.index(s) for s in stages])
    t = 2 * np.pi * np.arange(EPOCH_LEN) / RATE_HZ
    freq = np.array([_STAGE_WAVE[s][0] for s in tokens])[:, None]
    amp = np.array([_STAGE_WAVE[s][1] for s in tokens], dtype=np.float32)[code, None]
    sin_table = np.sin(freq * t).astype(np.float32)
    cos_table = np.cos(freq * t).astype(np.float32)
    out = []
    for label, spr, pmin, pmax, dmin, dmax in PSG_SIGNALS:
        header = edf.SignalHeader(label=label, physical_dimension="uV",
                                  physical_min=pmin, physical_max=pmax,
                                  digital_min=dmin, digital_max=dmax,
                                  samples_per_record=spr)
        if spr == EPOCH_LEN:
            # sin(wt + phase) from per-stage tables, phase drawn per epoch
            phase = rng.uniform(0, 2 * np.pi, size=(n, 1)).astype(np.float32)
            wave = sin_table[code] * np.cos(phase) + cos_table[code] * np.sin(phase)
            noise = rng.standard_normal((n, spr), dtype=np.float32)
            physical = (amp * (rng.uniform(0.6, 1.2) * wave + 0.25 * noise)).ravel()
        else:
            physical = np.cumsum(rng.standard_normal(n * spr)) * 0.01 * (pmax - pmin)
            physical = np.clip(physical + 0.5 * (pmin + pmax), pmin, pmax)
        out.append((header, _digitize(physical, pmin, pmax, dmin, dmax)))
    return out


def embedded_annotation_signal(intervals, n_records: int):
    """EDF+ annotation signal with one time-keeping TAL per data record and
    each stage TAL in the record its onset falls in."""
    by_record: dict[int, list[bytes]] = {}
    for onset, duration, token in intervals:
        text = "Movement time" if token == "M" else f"Sleep stage {token}"
        tal = f"+{int(onset)}\x15{int(duration)}\x14{text}\x14\x00".encode("ascii")
        by_record.setdefault(int(onset) // EPOCH_S, []).append(tal)
    records = []
    for r in range(n_records):
        blob = f"+{r * EPOCH_S}\x14\x14\x00".encode("ascii") + b"".join(by_record.get(r, []))
        if len(blob) > _TAL_BYTES:
            raise ValueError(f"record {r}: {len(blob)} TAL bytes exceed {_TAL_BYTES}")
        records.append(blob.ljust(_TAL_BYTES, b"\x00"))
    header = edf.SignalHeader(label=edf.ANNOTATION_LABEL, samples_per_record=_TAL_BYTES // 2)
    return header, np.frombuffer(b"".join(records), dtype="<i2").astype(np.int32)


def sidecar_hypnogram(intervals, start: dt.datetime) -> bytes:
    """Single-record EDF+ hypnogram holding the whole TAL list."""
    spr = 16 + 24 * len(intervals)  # 48 bytes per TAL, the longest needs ~37
    sig, arr = edf.encode_annotation_signal(intervals, record_count=1,
                                            record_duration=0.0, samples_per_record=spr)
    return edf.build_edf([(sig, arr)], record_count=1, record_duration=Fraction(0), start=start)


def make_night(seed: int, subject: str, night: int, directory: Path,
               n_epochs: int = NIGHT_EPOCHS, embedded: bool = False) -> Night:
    """Write one night's PSG, and its hypnogram unless embedded, to `directory`."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(night,)))
    stages = night_stages(rng, n_epochs)
    start = dt.datetime(1989, 4, 24, 22, 0, 0) + dt.timedelta(days=night)
    signals = _channels(rng, stages)
    intervals = stage_intervals(stages)
    stem = f"{subject}N{night}"
    if embedded:
        signals.append(embedded_annotation_signal(intervals, n_epochs))
    psg = edf.build_edf(signals, record_count=n_epochs, record_duration=Fraction(EPOCH_S),
                        start=start, patient_id=subject, recording_id=stem)
    directory = Path(directory)
    psg_path = directory / f"{stem}-PSG.edf"
    psg_path.write_bytes(psg)
    hyp_path = None
    if not embedded:
        hyp_path = directory / f"{stem}-Hypnogram.edf"
        hyp_path.write_bytes(sidecar_hypnogram(intervals, start))
    return Night(subject=subject, stem=stem, psg=psg_path, hypnogram=hyp_path, stages=stages)


def make_corpus(seed: int, directory: Path, n_epochs: int = NIGHT_EPOCHS) -> list[Night]:
    """Two subjects with two nights each, the second night of the first
    subject with embedded annotations, then a third subject whose PSG is the
    first night cut short mid-record, in cache-file order. The manifest
    lists them for `load_corpus`."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    nights = [make_night(seed, subject, night, directory, n_epochs, embedded=(night == 1))
              for subject, night in (("SC40", 0), ("SC40", 1), ("SC41", 2), ("SC41", 3))]
    first = nights[0]
    psg = first.psg.read_bytes()
    record_bytes = (len(psg) - 256 * (1 + len(PSG_SIGNALS))) // n_epochs
    truncated = dataclasses.replace(first, subject="SC42", stem="SC42N4", truncated=True,
                                    psg=directory / "SC42N4-PSG.edf")
    truncated.psg.write_bytes(psg[:len(psg) - record_bytes // 2])
    nights.append(truncated)
    manifest = [{**dataclasses.asdict(n), "psg": n.psg.name,
                 "hypnogram": n.hypnogram.name if n.hypnogram else None} for n in nights]
    (directory / MANIFEST).write_text(json.dumps(manifest))
    return nights


def load_corpus(directory: Path) -> list[Night]:
    """The nights `make_corpus` wrote to `directory`."""
    directory = Path(directory)
    rows = json.loads((directory / MANIFEST).read_text())
    return [Night(**{**row, "psg": directory / row["psg"],
                     "hypnogram": directory / row["hypnogram"] if row["hypnogram"] else None})
            for row in rows]


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description="Write the synthetic corpus of one seed.")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    make_corpus(args.seed, args.out)


if __name__ == "__main__":
    main()
