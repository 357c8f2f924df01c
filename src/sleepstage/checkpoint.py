"""Checkpoints: one file holding a model's named float64 arrays and a
manifest of the configuration keys that say which model, channel and split
it holds: `dataset.channel`, every `model.*` key, and the `split.*` keys the
split's kind uses (`SplitConfig.used_fields`).

The container, version 2: magic `NPC1`, u32 version, u32 manifest length,
the UTF-8 manifest, u32 count, then per entry u32 name length, UTF-8 name,
u32 rank, u64 dims and the little-endian float64 payload.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import build_section, format_kv, format_section, parse_kv_text, section_fields
from .errors import ConfigError, DataError, TruncatedFile
from .evaluation import SplitConfig
from .files import write_atomic
from .model import ModelParams

_CKPT_MAGIC = b"NPC1"
_CKPT_VERSION = 2


def save_arrays(arrays: dict[str, np.ndarray], manifest: str, path) -> None:
    """Write a manifest text and named float64 arrays, atomically."""
    text = manifest.encode("utf-8")

    def write(fh) -> None:
        fh.write(_CKPT_MAGIC + struct.pack("<II", _CKPT_VERSION, len(text)) + text)
        fh.write(struct.pack("<I", len(arrays)))
        for name, arr in arrays.items():
            nb = name.encode("utf-8")
            fh.write(struct.pack("<I", len(nb)) + nb)
            fh.write(struct.pack(f"<I{arr.ndim}Q", arr.ndim, *arr.shape))
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    write_atomic(path, write)


def load_arrays(path) -> tuple[str, dict[str, np.ndarray]]:
    """(manifest text, named arrays) of a container `save_arrays` wrote."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 8 or blob[:4] != _CKPT_MAGIC:
        raise TruncatedFile(f"{path}: not a parameter container")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != _CKPT_VERSION:
        raise TruncatedFile(f"{path}: unsupported container version {version}")
    off = 8
    part = "the manifest"
    out: dict[str, np.ndarray] = {}

    def take(nbytes: int) -> int:
        """Offset of the next `nbytes` bytes, which must lie inside the file."""
        nonlocal off
        if off + nbytes > len(blob):
            raise TruncatedFile(f"{path}: container ends inside {part}")
        off += nbytes
        return off - nbytes

    def text(what: str) -> str:
        """The next length-prefixed UTF-8 string, which `what` names in errors."""
        (nbytes,) = struct.unpack_from("<I", blob, take(4))
        start = take(nbytes)
        try:
            return blob[start:off].decode("utf-8")
        except UnicodeDecodeError:
            raise TruncatedFile(f"{path}: {what} is not UTF-8 text") from None

    manifest = text("the manifest")
    (count,) = struct.unpack_from("<I", blob, take(4))
    for i in range(count):
        part = f"entry {i}"
        name = text(f"the name of entry {i}")
        if name in out:  # else the later entry would win, whatever the earlier one holds
            raise TruncatedFile(f"{path}: entry {i} repeats the name {name!r}")
        (rank,) = struct.unpack_from("<I", blob, take(4))
        dims = struct.unpack_from(f"<{rank}Q", blob, take(8 * rank))
        n = math.prod(dims)
        arr = np.frombuffer(blob, dtype="<f8", count=n, offset=take(8 * n))
        try:
            arr = arr.reshape(dims)
        except ValueError:  # an empty shape whose other dims overflow numpy's sizes
            raise TruncatedFile(f"{path}: entry {i} has shape {dims}, "
                                f"which no array can take") from None
        out[name] = arr.astype(np.float64)
    return manifest, out


def _read_section(prefix: str, manifest: dict[str, str], path):
    """The `prefix` section the manifest records, which must hold each of the
    section's fields that `save_checkpoint` writes."""
    try:
        section = build_section(prefix, manifest, seed_key=f"{prefix}.seed")
    except ConfigError as exc:
        raise DataError(f"checkpoint manifest {path}: {exc}") from None
    for name in section.used_fields() if prefix == "split" else section_fields(prefix):
        if f"{prefix}.{name}" not in manifest:
            raise DataError(f"checkpoint manifest {path} lacks '{prefix}.{name}'")
    return section


@dataclass(frozen=True)
class Checkpoint:
    """A loaded model, the channel it was trained on, and its manifest."""
    params: ModelParams
    channel: str
    manifest: dict[str, str]
    path: Path

    def split(self) -> SplitConfig:
        """The split it was trained on; only this reads the `split.*` keys."""
        return _read_section("split", self.manifest, self.path)


def save_checkpoint(mp: ModelParams, path: Path, channel: str, split: SplitConfig) -> None:
    manifest = {"dataset.channel": channel,
                **format_section("model", mp.cfg, section_fields("model")),
                **format_section("split", split, split.used_fields())}
    save_arrays(mp.state_arrays(), format_kv(manifest), path)


def load_checkpoint(path: Path, channel: str | None) -> Checkpoint:
    """The checkpoint at `path`, whose manifest must name `channel` when one is given."""
    if not Path(path).is_file():
        raise ConfigError(f"checkpoint {path} does not exist")
    text, arrays = load_arrays(path)
    try:
        manifest = parse_kv_text(text, source=f"checkpoint manifest {path}")
    except ConfigError as exc:
        raise DataError(str(exc)) from None
    if "dataset.channel" not in manifest:
        raise DataError(f"checkpoint manifest {path} lacks 'dataset.channel'")
    cfg = _read_section("model", manifest, path)
    try:
        mp = ModelParams.from_state(cfg, arrays)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    for name, arr in mp.state_arrays().items():
        if not np.isfinite(arr).all():
            raise DataError(f"{path}: checkpoint entry {name!r} holds NaN or infinity")
        if name.endswith(".running_var") and (arr < 0).any():
            raise DataError(f"{path}: checkpoint entry {name!r} holds a negative variance")
    if channel is not None and channel != manifest["dataset.channel"]:
        raise ConfigError(f"checkpoint was trained on channel "
                          f"{manifest['dataset.channel']!r}, run asks for {channel!r}")
    return Checkpoint(mp, manifest["dataset.channel"], manifest, Path(path))
