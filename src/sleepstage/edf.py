"""EDF/EDF+ parsing into calibrated signals and labeled 30-second epochs.

The format: a 256-byte fixed-width ASCII header, 256 more bytes per signal,
then data records of interleaved 16-bit little-endian two's-complement
samples. Hypnogram annotations arrive either as an embedded "EDF Annotations"
signal (TAL-encoded) or as a sidecar EDF+ file of the same shape; both feed
one parser.
"""
from __future__ import annotations

import datetime as dt
import logging
import math
from dataclasses import dataclass, field
from enum import IntEnum
from fractions import Fraction

import numpy as np

from .errors import (
    MalformedHeader,
    OverlappingAnnotations,
    SampleRateMismatch,
    SignalNotFound,
    TruncatedFile,
    UnknownStageString,
    DegenerateCalibration,
)

log = logging.getLogger(__name__)

EPOCH_SECONDS = 30
ANNOTATION_LABEL = "EDF Annotations"


class StageLabel(IntEnum):
    """AASM stage codes used throughout the pipeline."""

    N3 = 0
    N2 = 1
    N1 = 2
    R = 3
    W = 4


# raw hypnogram vocabulary -> stage (None = excluded from the dataset)
_RAW_STAGE_MAP: dict[str, StageLabel | None] = {
    "W": StageLabel.W,
    "R": StageLabel.R,
    "1": StageLabel.N1,
    "2": StageLabel.N2,
    "3": StageLabel.N3,
    "4": StageLabel.N3,  # legacy S4 merges into N3
    "M": None,
    "?": None,
}


@dataclass
class SignalHeader:
    label: str
    transducer: str = ""
    physical_dimension: str = ""
    physical_min: float = -1.0
    physical_max: float = 1.0
    digital_min: int = -32768
    digital_max: int = 32767
    prefiltering: str = ""
    samples_per_record: int = 1
    reserved: str = ""


@dataclass
class EdfHeader:
    version: str
    patient_id: str
    recording_id: str
    start_datetime: dt.datetime
    header_bytes: int
    record_count: int
    record_duration: Fraction
    signal_count: int
    signals: list[SignalHeader] = field(default_factory=list)


@dataclass
class EegRecording:
    """One calibrated channel of one night, in physical units (uV)."""

    subject_id: str
    channel_name: str
    sample_rate: float
    samples: np.ndarray
    start_datetime: dt.datetime


@dataclass
class LabeledEpoch:
    """A 30-second window with its stage; epoch_index counts 30-s slots
    from the recording start, so excluded slots leave gaps."""

    samples: np.ndarray
    label: StageLabel
    subject_id: str
    epoch_index: int


@dataclass(frozen=True, eq=False)
class EpochSet:
    """A set of epochs as four columns; row i is one LabeledEpoch.

    samples [N, L] stays in the dtype it was built from (float32 from the
    cache), labels are stage codes, subjects and epoch_index name each row.
    An integer index gives a LabeledEpoch with float64 samples; a slice or an
    index array gives an EpochSet.
    """

    samples: np.ndarray
    labels: np.ndarray
    subjects: np.ndarray
    epoch_index: np.ndarray

    @classmethod
    def of(cls, epochs) -> "EpochSet":
        """`epochs` itself when it is an EpochSet, else its LabeledEpochs stacked."""
        if isinstance(epochs, EpochSet):
            return epochs
        epochs = list(epochs)
        return cls(
            samples=np.stack([e.samples for e in epochs]) if epochs else np.empty((0, 0)),
            labels=np.asarray([int(e.label) for e in epochs], dtype=np.int64),
            subjects=np.asarray([e.subject_id for e in epochs], dtype=str),
            epoch_index=np.asarray([e.epoch_index for e in epochs], dtype=np.int64),
        )

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            return LabeledEpoch(
                samples=self.samples[key].astype(np.float64),
                label=StageLabel(int(self.labels[key])),
                subject_id=str(self.subjects[key]),
                epoch_index=int(self.epoch_index[key]),
            )
        return EpochSet(self.samples[key], self.labels[key], self.subjects[key],
                        self.epoch_index[key])


# --- header field helpers ---

def _ascii(data: bytes, offset: int, width: int) -> str:
    raw = data[offset:offset + width]
    try:
        return raw.decode("ascii").strip()
    except UnicodeDecodeError as exc:
        raise MalformedHeader(f"non-ASCII bytes at offset {offset}") from exc


def _ascii_int(data: bytes, offset: int, width: int, what: str) -> int:
    text = _ascii(data, offset, width)
    try:
        return int(text)
    except ValueError as exc:
        raise MalformedHeader(f"{what}: expected integer, got {text!r}") from exc


def _ascii_float(data: bytes, offset: int, width: int, what: str) -> float:
    text = _ascii(data, offset, width)
    try:
        return float(text)
    except ValueError as exc:
        raise MalformedHeader(f"{what}: expected number, got {text!r}") from exc


def _parse_start(date_s: str, time_s: str) -> dt.datetime:
    try:
        day, month, year2 = (int(p) for p in date_s.split("."))
        hour, minute, second = (int(p) for p in time_s.split("."))
    except ValueError as exc:
        raise MalformedHeader(f"bad start date/time {date_s!r} {time_s!r}") from exc
    year = 1900 + year2 if year2 >= 85 else 2000 + year2
    try:
        return dt.datetime(year, month, day, hour, minute, second)
    except ValueError as exc:
        raise MalformedHeader(f"bad start date/time {date_s!r} {time_s!r}") from exc


def parse_edf(data: bytes) -> tuple[EdfHeader, list[np.ndarray]]:
    """Decode header and per-signal digital sample arrays (de-interleaved).

    A record_count of -1 (EDF+ "unknown") is derived from the stream length.
    """
    if len(data) < 256:
        raise TruncatedFile(f"stream holds {len(data)} bytes, header needs 256")

    version = _ascii(data, 0, 8)
    patient_id = _ascii(data, 8, 80)
    recording_id = _ascii(data, 88, 80)
    start = _parse_start(_ascii(data, 168, 8), _ascii(data, 176, 8))
    header_bytes = _ascii_int(data, 184, 8, "header_bytes")
    record_count = _ascii_int(data, 236, 8, "record_count")
    dur_text = _ascii(data, 244, 8)
    try:
        record_duration = Fraction(dur_text)
    except (ValueError, ZeroDivisionError) as exc:
        raise MalformedHeader(f"record_duration: got {dur_text!r}") from exc
    signal_count = _ascii_int(data, 252, 4, "signal_count")

    if signal_count < 1:
        raise MalformedHeader(f"signal_count {signal_count} < 1")
    if header_bytes != 256 + 256 * signal_count:
        raise MalformedHeader(
            f"header_bytes {header_bytes} != 256 + 256*{signal_count}")
    if len(data) < header_bytes:
        raise TruncatedFile(f"stream holds {len(data)} bytes, header needs {header_bytes}")
    if record_duration < 0:
        raise MalformedHeader(f"record_duration {record_duration} < 0")

    ns = signal_count
    sigs: list[SignalHeader] = []
    base = 256
    for i in range(ns):
        sigs.append(SignalHeader(
            label=_ascii(data, base + 16 * i, 16),
            transducer=_ascii(data, base + 16 * ns + 80 * i, 80),
            physical_dimension=_ascii(data, base + 96 * ns + 8 * i, 8),
            physical_min=_ascii_float(data, base + 104 * ns + 8 * i, 8, f"signal {i} physical_min"),
            physical_max=_ascii_float(data, base + 112 * ns + 8 * i, 8, f"signal {i} physical_max"),
            digital_min=_ascii_int(data, base + 120 * ns + 8 * i, 8, f"signal {i} digital_min"),
            digital_max=_ascii_int(data, base + 128 * ns + 8 * i, 8, f"signal {i} digital_max"),
            prefiltering=_ascii(data, base + 136 * ns + 80 * i, 80),
            samples_per_record=_ascii_int(data, base + 216 * ns + 8 * i, 8, f"signal {i} samples_per_record"),
            reserved=_ascii(data, base + 224 * ns + 32 * i, 32),
        ))

    for i, s in enumerate(sigs):
        if s.samples_per_record < 1:
            raise MalformedHeader(f"signal {i}: samples_per_record {s.samples_per_record} < 1")
        if s.digital_min >= s.digital_max:
            raise MalformedHeader(
                f"signal {i}: digital_min {s.digital_min} >= digital_max {s.digital_max}")
        if s.physical_min == s.physical_max:
            raise MalformedHeader(f"signal {i}: physical_min == physical_max")

    record_samples = sum(s.samples_per_record for s in sigs)
    record_bytes = 2 * record_samples
    if record_count == -1:
        record_count = (len(data) - header_bytes) // record_bytes if record_bytes else 0
    if record_count < 0:
        raise MalformedHeader(f"record_count {record_count} < 0")
    needed = header_bytes + record_count * record_bytes
    if len(data) < needed:
        raise TruncatedFile(
            f"stream holds {len(data)} bytes, {record_count} records need {needed}")

    header = EdfHeader(
        version=version,
        patient_id=patient_id,
        recording_id=recording_id,
        start_datetime=start,
        header_bytes=header_bytes,
        record_count=record_count,
        record_duration=record_duration,
        signal_count=signal_count,
        signals=sigs,
    )

    flat = np.frombuffer(data, dtype="<i2", count=record_count * record_samples,
                         offset=header_bytes)
    table = flat.reshape(record_count, record_samples) if record_count else flat.reshape(0, record_samples)
    signals: list[np.ndarray] = []
    col = 0
    for s in sigs:
        block = table[:, col:col + s.samples_per_record]
        signals.append(np.ascontiguousarray(block).reshape(-1).astype(np.int32))
        col += s.samples_per_record
    return header, signals


def serialize_edf(header: EdfHeader, signals: list[np.ndarray]) -> bytes:
    """Inverse of parse_edf for synthetic files and round-trip checks."""
    if len(signals) != header.signal_count or len(header.signals) != header.signal_count:
        raise ValueError("signal count mismatch")

    def fw(value, width: int) -> bytes:
        text = str(value)
        if len(text) > width:
            raise ValueError(f"{text!r} does not fit in {width} ASCII bytes")
        return text.ljust(width).encode("ascii")

    def fw_num(value, width: int) -> bytes:
        if isinstance(value, float) and value == int(value):
            value = int(value)
        return fw(value, width)

    start = header.start_datetime
    dur = header.record_duration
    dur_repr = str(int(dur)) if dur.denominator == 1 else str(float(dur))
    parts = [
        fw(header.version, 8),
        fw(header.patient_id, 80),
        fw(header.recording_id, 80),
        fw(f"{start.day:02d}.{start.month:02d}.{start.year % 100:02d}", 8),
        fw(f"{start.hour:02d}.{start.minute:02d}.{start.second:02d}", 8),
        fw(header.header_bytes, 8),
        fw("", 44),
        fw(header.record_count, 8),
        fw(dur_repr, 8),
        fw(header.signal_count, 4),
    ]
    sigs = header.signals
    parts += [fw(s.label, 16) for s in sigs]
    parts += [fw(s.transducer, 80) for s in sigs]
    parts += [fw(s.physical_dimension, 8) for s in sigs]
    parts += [fw_num(s.physical_min, 8) for s in sigs]
    parts += [fw_num(s.physical_max, 8) for s in sigs]
    parts += [fw(s.digital_min, 8) for s in sigs]
    parts += [fw(s.digital_max, 8) for s in sigs]
    parts += [fw(s.prefiltering, 80) for s in sigs]
    parts += [fw(s.samples_per_record, 8) for s in sigs]
    parts += [fw(s.reserved, 32) for s in sigs]

    for sig_header, arr in zip(sigs, signals):
        if len(arr) != header.record_count * sig_header.samples_per_record:
            raise ValueError(f"signal {sig_header.label!r}: wrong sample count")

    records = []
    for r in range(header.record_count):
        for sig_header, arr in zip(sigs, signals):
            spr = sig_header.samples_per_record
            chunk = np.asarray(arr[r * spr:(r + 1) * spr], dtype="<i2")
            records.append(chunk.tobytes())
    return b"".join(parts) + b"".join(records)


def calibrate(digital: np.ndarray, sig: SignalHeader) -> np.ndarray:
    """Affine digital -> physical map; out-of-range samples clamp with a warning."""
    if sig.digital_min == sig.digital_max:
        raise DegenerateCalibration(f"signal {sig.label!r}: digital_min == digital_max")
    d = np.asarray(digital, dtype=np.float64)
    below = d < sig.digital_min
    above = d > sig.digital_max
    n_out = int(below.sum() + above.sum())
    if n_out:
        log.warning("signal %r: clamped %d samples outside [%d, %d]",
                    sig.label, n_out, sig.digital_min, sig.digital_max)
        d = np.clip(d, sig.digital_min, sig.digital_max)
    gain = (sig.physical_max - sig.physical_min) / (sig.digital_max - sig.digital_min)
    return sig.physical_min + (d - sig.digital_min) * gain


def find_signal(header: EdfHeader, channel: str) -> int:
    for i, s in enumerate(header.signals):
        if s.label == channel:
            return i
    labels = [s.label for s in header.signals]
    raise SignalNotFound(f"channel {channel!r} not in {labels}")


def read_recording(data: bytes, channel: str, subject_id: str) -> EegRecording:
    """Parse, select and calibrate one channel into an EegRecording."""
    header, signals = parse_edf(data)
    idx = find_signal(header, channel)
    sig = header.signals[idx]
    if header.record_duration == 0:
        raise MalformedHeader("record_duration 0 for a sampled signal")
    rate = Fraction(sig.samples_per_record) / header.record_duration
    return EegRecording(
        subject_id=subject_id,
        channel_name=channel,
        sample_rate=float(rate),
        samples=calibrate(signals[idx], sig),
        start_datetime=header.start_datetime,
    )


# --- annotations / hypnograms ---

def _decode_tals(raw: bytes):
    """Yield (onset_seconds, duration_seconds, text) from one record's TAL bytes."""
    for tal in raw.split(b"\x00"):
        if not tal:
            continue
        head, *texts = tal.split(b"\x14")
        if b"\x15" in head:
            onset_b, dur_b = head.split(b"\x15", 1)
        else:
            onset_b, dur_b = head, b""
        try:
            onset = float(onset_b)
            duration = float(dur_b) if dur_b else 0.0
        except ValueError:
            continue  # garbage between TALs; skip defensively
        for t in texts:
            text = t.decode("utf-8", errors="replace").strip()
            if text:
                yield onset, duration, text


def extract_annotations(data: bytes) -> list[tuple[float, float, str]]:
    """All TAL annotations of an EDF+ stream, in file order."""
    header, signals = parse_edf(data)
    out: list[tuple[float, float, str]] = []
    for sig_header, arr in zip(header.signals, signals):
        if sig_header.label != ANNOTATION_LABEL:
            continue
        spr = sig_header.samples_per_record
        raw = arr.astype("<i2").tobytes()
        for r in range(header.record_count):
            out.extend(_decode_tals(raw[2 * spr * r:2 * spr * (r + 1)]))
    return out


def _normalize_stage_text(text: str) -> str:
    token = text.strip()
    if token.startswith("Sleep stage "):
        token = token[len("Sleep stage "):].strip()
    if token == "Movement time":
        token = "M"
    if token.lower() in ("unscored", "u"):
        token = "?"
    return token


def parse_hypnogram(source: bytes | list[tuple[float, float, str]]) -> list[tuple[float, float, str]]:
    """Stage intervals (onset_s, duration_s, raw_stage_string), validated.

    `source` is either the bytes of an EDF+ stream carrying an annotation
    signal (sidecar hypnogram or the PSG itself) or an already-extracted
    annotation list. Intervals must be ordered and non-overlapping.
    """
    entries = extract_annotations(source) if isinstance(source, (bytes, bytearray)) else source
    intervals: list[tuple[float, float, str]] = []
    for onset, duration, text in entries:
        token = _normalize_stage_text(text)
        if token not in _RAW_STAGE_MAP:
            raise UnknownStageString(f"stage annotation {text!r} at {onset}s")
        intervals.append((onset, duration, token))
    for (o1, d1, _), (o2, _, _) in zip(intervals, intervals[1:]):
        if o2 < o1:
            raise OverlappingAnnotations(f"onset {o2}s comes after {o1}s")
        if o2 < o1 + d1:
            raise OverlappingAnnotations(
                f"interval at {o1}s (duration {d1}s) overlaps onset {o2}s")
    return intervals


def map_label(raw_stage: str) -> StageLabel | None:
    """Stage code for a raw hypnogram token; None when the token is
    scored-but-excluded (movement, unscored)."""
    token = _normalize_stage_text(raw_stage)
    if token not in _RAW_STAGE_MAP:
        raise UnknownStageString(f"stage token {raw_stage!r}")
    return _RAW_STAGE_MAP[token]


def epoch_recording(rec: EegRecording,
                    stages: list[tuple[float, float, str]]) -> list[LabeledEpoch]:
    """Cut rec into labeled 30-s windows; a window survives only when it is
    fully covered by both the signal and a single non-excluded stage interval."""
    epoch_len = rec.sample_rate * EPOCH_SECONDS
    if epoch_len != int(epoch_len):
        raise SampleRateMismatch(
            f"sample rate {rec.sample_rate} Hz gives non-integer epoch length")
    epoch_len = int(epoch_len)
    n_windows = len(rec.samples) // epoch_len

    epochs: list[LabeledEpoch] = []
    for onset, duration, token in stages:
        label = map_label(token)
        if label is None:
            continue
        first = math.ceil(onset / EPOCH_SECONDS)
        last = math.floor((onset + duration) / EPOCH_SECONDS)  # exclusive
        for w in range(max(first, 0), min(last, n_windows)):
            # float grid alignment: keep only windows truly inside the interval
            if w * EPOCH_SECONDS < onset - 1e-9 or (w + 1) * EPOCH_SECONDS > onset + duration + 1e-9:
                continue
            epochs.append(LabeledEpoch(
                samples=rec.samples[w * epoch_len:(w + 1) * epoch_len],
                label=label,
                subject_id=rec.subject_id,
                epoch_index=w,
            ))
    epochs.sort(key=lambda e: e.epoch_index)
    return epochs


# --- synthetic-file construction (round-trip checks, fixtures, demos) ---

def build_edf(signals: list[tuple[SignalHeader, np.ndarray]],
              record_count: int,
              record_duration: Fraction = Fraction(EPOCH_SECONDS),
              start: dt.datetime | None = None,
              patient_id: str = "X", recording_id: str = "X") -> bytes:
    headers = [s for s, _ in signals]
    header = EdfHeader(
        version="0",
        patient_id=patient_id,
        recording_id=recording_id,
        start_datetime=start or dt.datetime(1989, 4, 24, 23, 0, 0),
        header_bytes=256 + 256 * len(signals),
        record_count=record_count,
        record_duration=record_duration,
        signal_count=len(signals),
        signals=headers,
    )
    return serialize_edf(header, [arr for _, arr in signals])


def encode_annotation_signal(intervals: list[tuple[float, float, str]],
                             record_count: int, record_duration: float,
                             samples_per_record: int = 64) -> tuple[SignalHeader, np.ndarray]:
    """Pack stage intervals into an EDF+ annotation signal, one batch of TALs
    in the first record and timestamp TALs in the rest."""
    def fmt(x: float) -> str:
        return str(int(x)) if x == int(x) else repr(x)

    records: list[bytes] = []
    for r in range(record_count):
        tals = [f"+{fmt(r * record_duration)}\x14\x14".encode("ascii")]
        if r == 0:
            for onset, duration, token in intervals:
                text = "Movement time" if token == "M" else f"Sleep stage {token}"
                tals.append(
                    f"+{fmt(onset)}\x15{fmt(duration)}\x14{text}\x14".encode("ascii"))
        blob = b"".join(tal + b"\x00" for tal in tals)
        if len(blob) > 2 * samples_per_record:
            raise ValueError("annotation record overflow; raise samples_per_record")
        records.append(blob.ljust(2 * samples_per_record, b"\x00"))
    arr = np.frombuffer(b"".join(records), dtype="<i2").astype(np.int32)
    sig = SignalHeader(
        label=ANNOTATION_LABEL,
        physical_min=-1.0,
        physical_max=1.0,
        digital_min=-32768,
        digital_max=32767,
        samples_per_record=samples_per_record,
    )
    return sig, arr
