"""EDF/EDF+ parsing into calibrated signals and labeled 30-second epochs.

The format: a 256-byte fixed-width ASCII header, 256 more bytes per signal,
then data records of interleaved 16-bit little-endian two's-complement
samples. The per-signal header is one table, `_SIGNAL_FIELDS`, that both
parse_edf and serialize_edf walk. The data records are one [record_count,
samples per record] int16 table in which each signal owns a block of columns:
samples stay the stored int16 values, and read_recording decodes only its own
channel's columns. Hypnogram annotations arrive either as an embedded "EDF
Annotations" signal (TAL-encoded) or as a sidecar EDF+ file of the same shape;
both feed one parser.
"""
from __future__ import annotations

import datetime as dt
import logging
import math
from dataclasses import dataclass, field
from enum import IntEnum
from fractions import Fraction

import numpy as np

from .errors import DataError, TruncatedFile

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


# classes the model stages: its logits, the loss weights, the confusion matrix
N_STAGES = len(StageLabel)

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
    sample_rate: float
    samples: np.ndarray


@dataclass
class LabeledEpoch:
    """One row of an EpochSet: a 30-second window with its stage."""

    samples: np.ndarray
    label: StageLabel
    subject_id: str


@dataclass(frozen=True, eq=False)
class EpochSet:
    """A set of epochs as three columns; row i is one LabeledEpoch.

    samples [N, L] stays in the dtype it was built from. It is float32 both
    from the cache and from epoch_recording of a normalized recording, so
    preprocessing holds the set its cache file gives back. labels are stage
    codes and subjects name each row's subject; a subject's rows are in time
    order. An integer index gives a LabeledEpoch with float64 samples; a
    slice or an index array gives an EpochSet.
    """

    samples: np.ndarray
    labels: np.ndarray
    subjects: np.ndarray

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
            )
        return EpochSet(self.samples[key], self.labels[key], self.subjects[key])


# --- the EDF layout ---

# The per-signal header, in SignalHeader field order: (field, width, type).
# Each field is one block of signal_count values, one per signal.
_SIGNAL_FIELDS = (
    ("label", 16, str),
    ("transducer", 80, str),
    ("physical_dimension", 8, str),
    ("physical_min", 8, float),
    ("physical_max", 8, float),
    ("digital_min", 8, int),
    ("digital_max", 8, int),
    ("prefiltering", 80, str),
    ("samples_per_record", 8, int),
    ("reserved", 32, str),
)
_EXPECTED = {int: "integer", float: "number"}


def _ascii_value(data: bytes, offset: int, width: int, kind: type, what: str):
    raw = data[offset:offset + width]
    try:
        text = raw.decode("ascii").strip()
    except UnicodeDecodeError as exc:
        raise DataError(f"non-ASCII bytes at offset {offset}") from exc
    if kind is str:
        return text
    try:
        return kind(text)
    except ValueError as exc:
        raise DataError(f"{what}: expected {_EXPECTED[kind]}, got {text!r}") from exc


def _parse_start(date_s: str, time_s: str) -> dt.datetime:
    try:
        day, month, year2 = (int(p) for p in date_s.split("."))
        hour, minute, second = (int(p) for p in time_s.split("."))
    except ValueError as exc:
        raise DataError(f"bad start date/time {date_s!r} {time_s!r}") from exc
    year = 1900 + year2 if year2 >= 85 else 2000 + year2
    try:
        return dt.datetime(year, month, day, hour, minute, second)
    except ValueError as exc:
        raise DataError(f"bad start date/time {date_s!r} {time_s!r}") from exc


def _decode(data: bytes) -> tuple[EdfHeader, np.ndarray]:
    """The checked header and the data records: a [record_count, samples per
    record] little-endian int16 view of data, each signal a block of columns."""
    if len(data) < 256:
        raise TruncatedFile(f"stream holds {len(data)} bytes, header needs 256")

    version = _ascii_value(data, 0, 8, str, "version")
    patient_id = _ascii_value(data, 8, 80, str, "patient_id")
    recording_id = _ascii_value(data, 88, 80, str, "recording_id")
    start = _parse_start(_ascii_value(data, 168, 8, str, "start_date"),
                         _ascii_value(data, 176, 8, str, "start_time"))
    header_bytes = _ascii_value(data, 184, 8, int, "header_bytes")
    record_count = _ascii_value(data, 236, 8, int, "record_count")
    dur_text = _ascii_value(data, 244, 8, str, "record_duration")
    try:
        record_duration = Fraction(dur_text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DataError(f"record_duration: got {dur_text!r}") from exc
    signal_count = _ascii_value(data, 252, 4, int, "signal_count")

    if signal_count < 1:
        raise DataError(f"signal_count {signal_count} < 1")
    if header_bytes != 256 + 256 * signal_count:
        raise DataError(
            f"header_bytes {header_bytes} != 256 + 256*{signal_count}")
    if len(data) < header_bytes:
        raise TruncatedFile(f"stream holds {len(data)} bytes, header needs {header_bytes}")
    if record_duration < 0:
        raise DataError(f"record_duration {record_duration} < 0")

    sigs: list[SignalHeader] = []
    for i in range(signal_count):
        values, offset = [], 256
        for name, width, kind in _SIGNAL_FIELDS:
            values.append(_ascii_value(data, offset + width * i, width, kind,
                                       f"signal {i} {name}"))
            offset += width * signal_count
        sigs.append(SignalHeader(*values))

    for i, s in enumerate(sigs):
        if s.samples_per_record < 1:
            raise DataError(f"signal {i}: samples_per_record {s.samples_per_record} < 1")
        if s.digital_min >= s.digital_max:
            raise DataError(
                f"signal {i}: digital_min {s.digital_min} >= digital_max {s.digital_max}")
        if s.physical_min == s.physical_max:
            raise DataError(f"signal {i}: physical_min == physical_max")

    record_samples = sum(s.samples_per_record for s in sigs)
    if record_count == -1:
        record_count = (len(data) - header_bytes) // (2 * record_samples)
    if record_count < 0:
        raise DataError(f"record_count {record_count} < 0")
    needed = header_bytes + record_count * 2 * record_samples
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
    records = np.frombuffer(data, dtype="<i2", count=record_count * record_samples,
                            offset=header_bytes)
    return header, records.reshape(record_count, record_samples)


def _columns(header: EdfHeader, index: int) -> slice:
    """The record-table columns of signal `index`."""
    start = sum(s.samples_per_record for s in header.signals[:index])
    return slice(start, start + header.signals[index].samples_per_record)


def parse_edf(data: bytes) -> tuple[EdfHeader, list[np.ndarray]]:
    """Decode the header and each signal's digital samples, de-interleaved,
    as the stored little-endian int16 values.

    A record_count of -1 (EDF+ "unknown") is derived from the stream length.
    """
    header, records = _decode(data)
    return header, [records[:, _columns(header, i)].flatten()
                    for i in range(header.signal_count)]


def serialize_edf(header: EdfHeader, signals: list[np.ndarray]) -> bytes:
    """Inverse of parse_edf for synthetic files and round-trip checks."""
    if len(signals) != header.signal_count or len(header.signals) != header.signal_count:
        raise ValueError("signal count mismatch")

    def fw(value, width: int) -> bytes:
        if isinstance(value, float) and value == int(value):
            value = int(value)
        text = str(value)
        if len(text) > width:
            raise ValueError(f"{text!r} does not fit in {width} ASCII bytes")
        return text.ljust(width).encode("ascii")

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
    parts += [fw(getattr(s, name), width)
              for name, width, _ in _SIGNAL_FIELDS for s in header.signals]

    blocks = []
    for sig_header, arr in zip(header.signals, signals):
        if len(arr) != header.record_count * sig_header.samples_per_record:
            raise ValueError(f"signal {sig_header.label!r}: wrong sample count")
        blocks.append(np.asarray(arr, dtype="<i2").reshape(
            header.record_count, sig_header.samples_per_record))
    return b"".join(parts) + np.concatenate(blocks, axis=1).tobytes()


def calibrate(digital: np.ndarray, sig: SignalHeader) -> np.ndarray:
    """Affine digital -> physical map, pmin + (d - dmin) * gain, as a new
    float64 array; out-of-range samples clamp with a warning.

    The range check reads the stored values' own min and max, so only a
    signal with an out-of-range sample pays for counting them. The map runs
    in place on the one float64 copy; d += pmin gives the bits of pmin + d.
    """
    if sig.digital_min == sig.digital_max:
        raise DataError(f"signal {sig.label!r}: digital_min == digital_max")
    raw = np.asarray(digital)
    d = np.array(raw, dtype=np.float64)
    if raw.size and (raw.min() < sig.digital_min or raw.max() > sig.digital_max):
        n_out = int(np.count_nonzero(d < sig.digital_min) + np.count_nonzero(d > sig.digital_max))
        log.warning("signal %r: clamped %d samples outside [%d, %d]",
                    sig.label, n_out, sig.digital_min, sig.digital_max)
        np.clip(d, sig.digital_min, sig.digital_max, out=d)
    gain = (sig.physical_max - sig.physical_min) / (sig.digital_max - sig.digital_min)
    d -= sig.digital_min
    d *= gain
    d += sig.physical_min
    return d


def find_signal(header: EdfHeader, channel: str) -> int:
    for i, s in enumerate(header.signals):
        if s.label == channel:
            return i
    labels = [s.label for s in header.signals]
    raise DataError(f"channel {channel!r} not in {labels}")


def read_recording(data: bytes, channel: str, subject_id: str) -> EegRecording:
    """Parse, select and calibrate one channel into an EegRecording; only
    that channel's samples are decoded."""
    header, records = _decode(data)
    idx = find_signal(header, channel)
    sig = header.signals[idx]
    if header.record_duration == 0:
        raise DataError("record_duration 0 for a sampled signal")
    rate = Fraction(sig.samples_per_record) / header.record_duration
    return EegRecording(
        subject_id=subject_id,
        sample_rate=float(rate),
        samples=calibrate(records[:, _columns(header, idx)], sig).reshape(-1),
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
    header, records = _decode(data)
    out: list[tuple[float, float, str]] = []
    for i, sig_header in enumerate(header.signals):
        if sig_header.label == ANNOTATION_LABEL:
            for record in records[:, _columns(header, i)]:
                out.extend(_decode_tals(record.tobytes()))
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
    annotation list. Intervals must be finite, ordered and non-overlapping.
    """
    entries = extract_annotations(source) if isinstance(source, (bytes, bytearray)) else source
    intervals: list[tuple[float, float, str]] = []
    for onset, duration, text in entries:
        token = _normalize_stage_text(text)
        if token not in _RAW_STAGE_MAP:
            raise DataError(f"stage annotation {text!r} at {onset}s")
        if duration < 0 or not math.isfinite(onset + duration):
            raise DataError(f"stage annotation {text!r} at {onset}s: onset and "
                            f"duration {duration}s must be finite, the duration >= 0")
        intervals.append((onset, duration, token))
    for (o1, d1, _), (o2, _, _) in zip(intervals, intervals[1:]):
        if o2 < o1:
            raise DataError(f"onset {o2}s comes after {o1}s")
        if o2 < o1 + d1:
            raise DataError(
                f"interval at {o1}s (duration {d1}s) overlaps onset {o2}s")
    return intervals


def map_label(raw_stage: str) -> StageLabel | None:
    """Stage code for a raw hypnogram token; None when the token is
    scored-but-excluded (movement, unscored)."""
    token = _normalize_stage_text(raw_stage)
    if token not in _RAW_STAGE_MAP:
        raise DataError(f"stage token {raw_stage!r}")
    return _RAW_STAGE_MAP[token]


def windows(rec: EegRecording) -> np.ndarray:
    """rec cut into 30-s windows [n_windows, L], a view of rec.samples; a
    trailing partial window is dropped."""
    epoch_len = rec.sample_rate * EPOCH_SECONDS
    if epoch_len != int(epoch_len):
        raise DataError(
            f"sample rate {rec.sample_rate} Hz gives non-integer epoch length")
    epoch_len = int(epoch_len)
    n_windows = len(rec.samples) // epoch_len
    return rec.samples[:n_windows * epoch_len].reshape(n_windows, epoch_len)


def scored_windows(stages: list[tuple[float, float, str]],
                   n_windows: int) -> tuple[np.ndarray, np.ndarray]:
    """(window index, labels) as int64 arrays in window order: the windows
    of a grid of n_windows that lie fully inside a single non-excluded stage
    interval. A window inside two such intervals is a
    DataError that names both onsets."""
    kept: dict[int, tuple[StageLabel, float]] = {}
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
            if w in kept:
                raise DataError(
                    f"window {w} lies inside the scored intervals at {kept[w][1]}s "
                    f"and {onset}s")
            kept[w] = (label, onset)
    index = np.asarray(sorted(kept), dtype=np.int64)
    return index, np.asarray([int(kept[w][0]) for w in index], dtype=np.int64)


def epoch_recording(rec: EegRecording,
                    stages: list[tuple[float, float, str]]) -> EpochSet:
    """The scored windows of rec as rows in rec's dtype, labeled, in time
    order."""
    grid = windows(rec)
    index, labels = scored_windows(stages, len(grid))
    return EpochSet(
        samples=grid[index],
        labels=labels,
        subjects=np.full(index.size, rec.subject_id),
    )


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
