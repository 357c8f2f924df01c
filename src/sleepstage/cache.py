"""Binary epoch cache and per-subject normalization stats files.

Cache layout: 4 magic bytes, u32 version, u32 epoch count, then from byte
12 one record per epoch of the packed dtype [('label','u1'),('x','<f4',(L,))],
with L implied by the file size. Epochs are stored in epoch_index order;
loading renumbers them densely from 0 into one EpochSet.
"""
from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .edf import EpochSet, LabeledEpoch, StageLabel
from .errors import DataError, TruncatedFile
from .preprocess import NormalizationStats

_MAGIC = b"SSE1"
_VERSION = 1

EPOCH_SUFFIX = ".epochs"
STATS_SUFFIX = ".stats"


def save_epochs(epochs: list[LabeledEpoch], path) -> None:
    if not epochs:
        raise ValueError("refusing to write an empty epoch cache")
    lengths = {len(e.samples) for e in epochs}
    if len(lengths) != 1:
        raise ValueError(f"mixed epoch lengths {sorted(lengths)}")
    ordered = sorted(epochs, key=lambda e: e.epoch_index)
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", _VERSION, len(ordered)))
        for e in ordered:
            fh.write(struct.pack("B", int(e.label)))
            fh.write(np.asarray(e.samples, dtype="<f4").tobytes())


def _read_records(path) -> np.ndarray:
    """The checked epoch records of one cache file."""
    blob = Path(path).read_bytes()
    if len(blob) < 12 or blob[:4] != _MAGIC:
        raise TruncatedFile(f"{path}: not an epoch cache")
    version, count = struct.unpack_from("<II", blob, 4)
    if version != _VERSION:
        raise TruncatedFile(f"{path}: unsupported cache version {version}")
    body = len(blob) - 12
    if count == 0:
        raise TruncatedFile(f"{path}: empty cache")
    if body % count:
        raise TruncatedFile(f"{path}: {body} payload bytes not divisible by {count} epochs")
    record = body // count
    if (record - 1) % 4:
        raise TruncatedFile(f"{path}: record size {record} is not 1 + 4*samples")
    records = np.frombuffer(blob, offset=12,
                            dtype=[("label", "u1"), ("x", "<f4", ((record - 1) // 4,))])
    if records["label"].max() >= len(StageLabel):
        raise TruncatedFile(f"{path}: label byte {records['label'].max()} is not a stage code")
    return records


def _epoch_set(files: list[np.ndarray], subjects: list[str]) -> EpochSet:
    """Join per-file records; epoch_index runs on across a subject's files."""
    if not files:
        return EpochSet.of([])
    lengths = {f.dtype["x"].shape for f in files}
    if len(lengths) != 1:
        raise DataError(f"cache files mix epoch lengths {sorted(lengths)}")
    counts = [len(f) for f in files]
    bases, next_index = [], {}
    for subject, count in zip(subjects, counts):
        bases.append(next_index.get(subject, 0))
        next_index[subject] = bases[-1] + count
    return EpochSet(
        samples=np.concatenate([f["x"] for f in files]),
        labels=np.concatenate([f["label"] for f in files]).astype(np.int64),
        subjects=np.repeat(subjects, counts),
        epoch_index=np.concatenate([base + np.arange(count, dtype=np.int64)
                                    for base, count in zip(bases, counts)]),
    )


def load_epochs(path, subject_id: str) -> EpochSet:
    return _epoch_set([_read_records(path)], [subject_id])


def save_stats(stats: NormalizationStats, path) -> None:
    Path(path).write_text(f"s05 = {stats.s05!r}\ns95 = {stats.s95!r}\n")


def load_stats(path) -> NormalizationStats:
    values = {}
    for line in Path(path).read_text().splitlines():
        key, _, val = line.partition("=")
        values[key.strip()] = float(val.strip())
    return NormalizationStats(s05=values["s05"], s95=values["s95"])


def subject_of(cache_name: str) -> str:
    """Cache files are named '<subject>__<recording>'; bare names are their
    own subject."""
    return cache_name.split("__", 1)[0]


def cached_subjects(cache_dir) -> list[str]:
    return sorted({subject_of(p.name[:-len(EPOCH_SUFFIX)])
                   for p in Path(cache_dir).glob(f"*{EPOCH_SUFFIX}")})


def load_all(cache_dir) -> EpochSet:
    """Every cached epoch in sorted file order; epoch indices are renumbered
    to keep strictly increasing within each subject across recordings."""
    paths = sorted(Path(cache_dir).glob(f"*{EPOCH_SUFFIX}"))
    return _epoch_set([_read_records(p) for p in paths],
                      [subject_of(p.name[:-len(EPOCH_SUFFIX)]) for p in paths])
