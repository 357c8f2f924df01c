"""Manifest-driven corpus fetcher: plain HTTP with range resume, sha256
verification, bounded parallelism, and retry with backoff."""
from __future__ import annotations

import hashlib
import http.client
import json
import logging
import shutil
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path, PurePath

from .errors import ChecksumMismatch, DataError, NetworkFailure

log = logging.getLogger(__name__)

_CHUNK = 1 << 16


@dataclass(frozen=True)
class ManifestEntry:
    url: str
    path: str          # destination, relative to the dataset root
    size: int
    sha256: str


# manifest keys and their JSON types; size must also be >= 0
_FIELDS = {"url": str, "path": str, "size": int, "sha256": str}


def load_manifest(path) -> list[ManifestEntry]:
    """The entries of a JSON manifest, a list of objects with the keys of _FIELDS."""
    try:
        raw = json.loads(Path(path).read_bytes().decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON
        raise DataError(f"manifest {path}: not UTF-8 JSON: {exc}") from None
    if not isinstance(raw, list) or not all(isinstance(item, dict) for item in raw):
        raise DataError(f"manifest {path}: top level must be a list of objects")
    for n, item in enumerate(raw):
        bad = [k for k, kind in _FIELDS.items() if type(item.get(k)) is not kind]
        if bad or item["size"] < 0:
            raise DataError(f"manifest {path}: entry {n}: bad or missing {bad or ['size']}")
        dest = PurePath(item["path"])
        if not dest.parts or dest.is_absolute() or ".." in dest.parts or "\0" in item["path"]:
            raise DataError(f"manifest {path}: entry {n}: path {item['path']!r} "
                            "must name a file inside the dataset root")
    return [ManifestEntry(e["url"], e["path"], e["size"], e["sha256"].lower()) for e in raw]


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(_CHUNK):
            h.update(chunk)
    return h.hexdigest()


def _verified(entry: ManifestEntry, dest: Path) -> bool:
    return dest.is_file() and dest.stat().st_size == entry.size and _sha256(dest) == entry.sha256


def _download_once(entry: ManifestEntry, dest: Path, timeout: float) -> None:
    partial = dest.with_suffix(dest.suffix + ".part")
    have = partial.stat().st_size if partial.is_file() else 0
    if have >= entry.size:
        have = 0  # a stale partial; the "wb" below truncates it
    headers = {"Range": f"bytes={have}-"} if have else {}
    request = urllib.request.Request(entry.url, headers=headers)
    with urllib.request.urlopen(request, timeout=timeout) as resp:
        if resp.status != 206:
            have = 0  # the server sent the whole file; start over
        with open(partial, "ab" if have else "wb") as fh:
            shutil.copyfileobj(resp, fh, _CHUNK)
    if partial.stat().st_size != entry.size:
        raise ChecksumMismatch(
            f"{entry.path}: got {partial.stat().st_size} bytes, expected {entry.size}")
    if _sha256(partial) != entry.sha256:
        partial.unlink()
        raise ChecksumMismatch(f"{entry.path}: sha256 mismatch")
    partial.replace(dest)


def fetch_entry(entry: ManifestEntry, dataset_root: Path, retries: int = 3,
                backoff: float = 0.5, timeout: float = 30.0) -> bool:
    """Ensure one manifest entry is present and verified.

    Returns True when a download happened, False when the file was already
    valid. Corrupt local files are re-fetched from scratch.
    """
    dest = dataset_root / entry.path
    dest.parent.mkdir(parents=True, exist_ok=True)
    if _verified(entry, dest):
        log.info("%s: already verified, skipping", entry.path)
        return False
    if dest.is_file():
        log.warning("%s: present but invalid, re-downloading", entry.path)
        dest.unlink()
    last_error: Exception | None = None
    for attempt in range(retries):
        if attempt:
            time.sleep(backoff * (2 ** (attempt - 1)))
        try:
            _download_once(entry, dest, timeout)
            return True
        except ChecksumMismatch as exc:
            last_error = exc
        except (urllib.error.URLError, http.client.HTTPException, ConnectionError,
                TimeoutError) as exc:  # a local write error stays an OSError
            last_error = exc
            log.warning("%s: attempt %d failed: %s", entry.path, attempt + 1, exc)
    if isinstance(last_error, ChecksumMismatch):
        raise last_error
    raise NetworkFailure(
        f"{entry.url}: unreachable after {retries} attempts ({last_error})")


def fetch_all(entries: list[ManifestEntry], dataset_root: Path, workers: int = 4,
              retries: int = 3, backoff: float = 0.5) -> int:
    """Fetch every entry (bounded parallel); returns the number downloaded."""
    dataset_root.mkdir(parents=True, exist_ok=True)
    with ThreadPoolExecutor(max_workers=max(1, workers)) as pool:
        results = list(pool.map(
            lambda e: fetch_entry(e, dataset_root, retries=retries, backoff=backoff),
            entries))
    return sum(results)
