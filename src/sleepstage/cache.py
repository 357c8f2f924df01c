"""The epoch cache, the one module that knows a recording's cache files:
`<name>.epochs` and `<name>.src`, the fingerprint of the sources they were
built from. An entry whose `.src` differs from what `ingest_night` would
write now is stale. `prune` removes `.stats` files, which nothing reads.

Cache layout: 4 magic bytes, u32 version, u32 epoch count N, then from byte
12 the two columns of an EpochSet: N label bytes (stage codes), then N*L
little-endian float32 samples, row after row, with L implied by the file
size. Epochs are stored in the order given, and loading concatenates the
files into one EpochSet. A load checks every file's header
against its size first, allocates the samples and labels once, then reads
each file's samples straight into their rows, so its peak memory is about
that samples array. Both kinds of file are written atomically.
"""
from __future__ import annotations

import logging
import os
import struct
from pathlib import Path

import numpy as np

from . import edf, preprocess
from .config import format_kv
from .edf import N_STAGES, EpochSet
from .errors import DataError, SleepStageError, TruncatedFile
from .files import write_atomic, write_text_atomic
from .preprocess import NormalizationStats

log = logging.getLogger("sleepstage")

_MAGIC = b"SSE1"
VERSION = 2

EPOCH_SUFFIX = ".epochs"
STATS_SUFFIX = ".stats"
_SRC_SUFFIX = ".src"


def save_epochs(epochs: EpochSet, path) -> None:
    """Write `epochs` in the order given, atomically. The float32 rows of a
    normalized recording are written as they are, without a copy."""
    if not epochs:
        raise ValueError("refusing to write an empty epoch cache")
    labels = epochs.labels.astype(np.uint8)
    samples = np.ascontiguousarray(epochs.samples, dtype="<f4")

    def write(fh) -> None:
        fh.write(_MAGIC + struct.pack("<II", VERSION, len(labels)))
        fh.write(labels)
        fh.write(samples)
    write_atomic(path, write)


def _header(path) -> tuple[int, int]:
    """(epoch count, samples per epoch) of one cache file, from its size and
    its 12 header bytes; the count is checked against the size, so what is
    allocated from it fits in the file."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(12)
    if len(head) < 12 or head[:4] != _MAGIC:
        raise TruncatedFile(f"{path}: not an epoch cache")
    version, count = struct.unpack_from("<II", head, 4)
    if version != VERSION:
        raise TruncatedFile(f"{path}: unsupported cache version {version} (this program "
                            f"reads version {VERSION}); re-run `sleepstage preprocess`")
    body = size - 12
    if count == 0:
        raise TruncatedFile(f"{path}: empty cache")
    if body % count:
        raise TruncatedFile(f"{path}: {body} payload bytes not divisible by {count} epochs")
    per_epoch = body // count
    if (per_epoch - 1) % 4:
        raise TruncatedFile(f"{path}: {per_epoch} bytes per epoch is not 1 + 4*samples")
    return count, (per_epoch - 1) // 4


def _read_into(path, samples: np.ndarray, labels: np.ndarray) -> None:
    """Read one cache file, whose _header gave len(samples) epochs of
    samples.shape[1] samples, straight into `samples` and `labels`."""
    count = len(samples)
    with open(path, "rb") as fh:
        # the file may have been replaced or resized since _header read it
        if (fh.read(12) != _MAGIC + struct.pack("<II", VERSION, count)
                or os.fstat(fh.fileno()).st_size != 12 + count + samples.nbytes):
            raise TruncatedFile(f"{path}: changed while it was loaded")
        codes = np.frombuffer(fh.read(count), dtype=np.uint8)
        if len(codes) != count or fh.readinto(samples) != samples.nbytes:
            raise TruncatedFile(f"{path}: changed while it was loaded")
    top = int(codes.max())
    if top >= N_STAGES:
        raise TruncatedFile(f"{path}: label byte {top} is not a stage code")
    labels[:] = codes


def _load(paths: list[Path], subjects: list[str]) -> EpochSet:
    """The epochs of `paths` in order, each file read once, straight into
    one samples and one labels array."""
    if not paths:
        return EpochSet(np.empty((0, 0), dtype=np.float32), np.empty(0, dtype=np.int64),
                        np.empty(0, dtype=str))
    counts, lengths = zip(*(_header(p) for p in paths))
    if len(set(lengths)) != 1:
        raise DataError(f"cache files mix epoch lengths {sorted({(n,) for n in lengths})}")
    samples = np.empty((sum(counts), lengths[0]), dtype="<f4")
    labels = np.empty(sum(counts), dtype=np.int64)
    start = 0
    for path, count in zip(paths, counts):
        _read_into(path, samples[start:start + count], labels[start:start + count])
        start += count
    return EpochSet(samples, labels, np.repeat(subjects, counts))


def load_epochs(path, subject_id: str) -> EpochSet:
    return _load([Path(path)], [subject_id])


def save_stats(stats: NormalizationStats, path) -> None:
    write_text_atomic(path, f"s05 = {stats.s05!r}\ns95 = {stats.s95!r}\n")


def subject_of(cache_name: str) -> str:
    """Cache files are named '<subject>__<recording>'; bare names are their
    own subject."""
    return cache_name.split("__", 1)[0]


def load_all(cache_dir) -> EpochSet:
    """Every cached epoch in sorted file order, so a subject's recordings
    follow one another in name order."""
    paths = sorted(Path(cache_dir).glob(f"*{EPOCH_SUFFIX}"))
    return _load(paths, [subject_of(p.name[:-len(EPOCH_SUFFIX)]) for p in paths])


def prune(cache_dir: Path, names) -> None:
    """Remove the entries of cache names not in `names`, recordings that left
    the corpus, so that `train` loads none of them, and every `.stats` file."""
    suffixes = (EPOCH_SUFFIX, STATS_SUFFIX, _SRC_SUFFIX)
    cached = {p.name[:-len(s)] for s in suffixes for p in cache_dir.glob(f"*{s}")}
    for name in sorted(cached - set(names)):
        for s in suffixes:
            (cache_dir / f"{name}{s}").unlink(missing_ok=True)
        log.info("%s: recording left the corpus, cache removed", name)
    for path in cache_dir.glob(f"*{STATS_SUFFIX}"):
        path.unlink()


def ingest_night(psg_bytes: bytes, hyp_bytes: bytes | None, channel: str,
                 cache_dir: Path, name: str, stem: str) -> EpochSet:
    """The epochs of the night `stem`, cached in `cache_dir` as `name`: loaded
    if up to date and whole, else read, epoched and written. A night that
    fails loses its entry, so that `train` loads only what `preprocess`
    counts, and its SleepStageError is raised."""
    import hashlib  # its OpenSSL, ~4 MB of RSS, loads only where a night is ingested
    epochs_path = cache_dir / f"{name}{EPOCH_SUFFIX}"
    src_path = cache_dir / f"{name}{_SRC_SUFFIX}"
    fingerprint = {"channel": channel, "cache.version": str(VERSION)}
    for source, data in (("psg", psg_bytes), ("hyp", hyp_bytes)):
        if data is not None:
            fingerprint[f"{source}.size"] = str(len(data))
            fingerprint[f"{source}.sha256"] = hashlib.sha256(data).hexdigest()
    src_text = format_kv(fingerprint).encode()
    if epochs_path.is_file() and src_path.is_file() and src_path.read_bytes() == src_text:
        try:
            epochs = load_epochs(epochs_path, subject_of(name))
            log.info("%s: cache up to date", stem)
            return epochs
        except DataError as exc:
            log.warning("%s: rebuilding damaged cache: %s", epochs_path, exc)
    try:
        rec, stages = preprocess.read_night(psg_bytes, hyp_bytes, channel, subject_of(name))
        if not stages:
            raise DataError(f"{stem}: no stage annotations found")
        epochs = edf.epoch_recording(rec, stages)
        if not epochs:
            raise DataError(f"{stem}: no scorable 30-s epochs")
    except SleepStageError:
        for path in (epochs_path, src_path):
            path.unlink(missing_ok=True)
        raise
    save_epochs(epochs, epochs_path)
    write_atomic(src_path, lambda fh: fh.write(src_text))
    log.info("%s: cached %d epochs", stem, len(epochs))
    return epochs
